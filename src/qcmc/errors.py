"""Exception hierarchy shared by all qcmc modules."""


class QcmcError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(QcmcError, ValueError):
    """Arguments violate a documented precondition."""


class NotInvertibleError(QcmcError):
    """Ring element has no inverse modulo x^p - 1 (caller should resample)."""


class SingularMatrixError(QcmcError):
    """Block matrix determinant is not a unit, so no inverse exists (caller should resample)."""


class DesignFailure(QcmcError):
    """Parity-check sampling exhausted its resampling budget."""


class KeygenFailure(QcmcError):
    """Key generation exhausted its resampling budget."""


class DecodingFailure(QcmcError):
    """Decryption could not recover a valid plaintext."""
