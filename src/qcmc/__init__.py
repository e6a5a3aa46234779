"""qcmc: quasi-cyclic LDPC/MDPC McEliece toolkit.

Circulant ring algebra over GF(2), private code design, iterative decoders,
bit-flipping decoding thresholds, attack work-factor estimation, decryption
complexity optimization, the cryptosystem itself, and a Monte Carlo harness.
"""

from .attacks import (IsdInstance, WfReport, dca_wf_at, h_enumeration_wf, isd_wf,
                      isda_wf_at, q_space_size)
from .crypto import (KeyMode, PrivateKey, PublicKey, decrypt, encrypt, keygen,
                     load_ciphertext, load_key, load_private_key, load_public_key,
                     public_parity_check, save_ciphertext, save_private_key,
                     save_public_key)
from .decoder import Algorithm, DecodeOutcome, DecoderConfig, decode, syndrome
from .design import (ParityCheck, SystemParams, sample_h_random, sample_h_rdf,
                     systematic_generator, weight_matrix)
from .errors import (DecodingFailure, DesignFailure, KeygenFailure,
                     NotInvertibleError, ParameterError, QcmcError,
                     SingularMatrixError)
from .gf2 import (BitPolynomial, QcMatrix, SparseSupport, poly_inverse, poly_mul,
                  qc_invert, qc_mul, qc_transpose, qc_vec_mul)
from .optimize import (DesignResult, OptimizationReport, OptimizerConfig,
                       complexity_c, m_star, optimize_design, security_targets)
from .prng import SeedStream
from .simulate import TrialReport, run_trials
from .threshold import ThresholdQuery, bf_threshold, bf_threshold_detail

__version__ = "0.1.0"
