"""Key generation, encryption, decryption, serialization, failure modes."""

import dataclasses
import hashlib

import numpy as np
import pytest

import qcmc.crypto
import qcmc.gf2
from oracles import elimination_invert, gf2_inv, gf2_matmul
from qcmc.crypto import (KEYGEN_BUDGET, KeyMode, _sample_q, decrypt, encrypt, keygen,
                         load_ciphertext, load_private_key, load_public_key, public_parity_check,
                         random_error_vector, save_ciphertext, save_private_key,
                         save_public_key)
from qcmc.crypto import load_key
from qcmc.decoder import Algorithm, DecoderConfig
from qcmc.design import SystemParams, systematic_generator
from qcmc.errors import DecodingFailure, KeygenFailure, ParameterError, SingularMatrixError
from qcmc.gf2 import (BitPolynomial, QcMatrix, poly_inverse, qc_invert, qc_is_invertible, qc_mul,
                      qc_transpose, qc_vec_mul)
from qcmc.prng import SeedStream


@pytest.fixture(scope="module")
def toy_keys(toy_params):
    return keygen(toy_params, 31337)


def random_message(k, seed):
    return np.random.RandomState(seed).randint(0, 2, k).astype(np.uint8)


@pytest.fixture(scope="module")
def odd_k_keys():
    return keygen(SystemParams.make(2, 67, 5, 2), 10)


def with_entry(word, index, entry):
    """word as entry's dtype, with word[index] = entry."""
    word = word.astype(np.asarray(entry).dtype)
    word[index] = entry
    return word


class TestSampleQ:
    def test_block_weights_follow_pattern(self, toy_params):
        q, _ = _sample_q(toy_params, SeedStream(5, "q"))
        for i in range(toy_params.n0):
            for j in range(toy_params.n0):
                assert q.blocks[i][j].weight == toy_params.W[i][j]

    def test_permutation_pattern_gives_monomial_blocks(self):
        params = SystemParams.make(4, 32, 3, 1)  # W = identity pattern, m = 1
        q, _ = _sample_q(params, SeedStream(6, "q"))
        for i in range(4):
            for j in range(4):
                assert q.blocks[i][j].weight == (1 if i == j else 0)

    def test_average_weight_identity(self):
        params = SystemParams.make(4, 64, 3, 1, sigma_w=13)
        assert float(params.m) == 13 / 4

    def test_unrealizable_pattern_fails_fast(self):
        # params construction accepts any W; sampling rejects the singular
        # mod-2 pattern immediately instead of burning the budget
        params = SystemParams(2, 32, 3, ((1, 1), (1, 1)), 1)
        with pytest.raises(ParameterError):
            _sample_q(params, SeedStream(7, "q"))


class TestKeygen:
    def test_public_code_admits_sparse_parity_check(self, toy_keys):
        sk, pk = toy_keys
        hp = public_parity_check(sk)
        prod = qc_mul(pk.Gp, qc_transpose(hp))
        assert all(blk.bits == 0 for row in prod.blocks for blk in row)

    # SHA-256 of the .sk and .pk files for seed 77; a change in sampling
    # order or file format shows up here
    GOLDEN = [
        (SystemParams.make(2, 256, 5, 2, sigma_w=6), KeyMode.CLASSIC,
         "a00f6f03e0f5b3018d32824e0ec4d86377350f31d6a1d17cb1d79966f0673c21",
         "e0c9618bdd18c0be273395e86cd22eb66f2660c4f14dd50284034af022d7a83d"),
        (SystemParams.make(2, 64, 5, 2, sigma_w=6), KeyMode.SYSTEMATIC,
         "234cdde9b929578a8b2570b544c19b2179db62bb01950336ff43518f55353f4a",
         "8c1b40ee74982263ae82ad8db1067dd38ba3ef33ffd84253a385994ed0010b38"),
        (SystemParams.make(2, 64, 5, 2), KeyMode.SYSTEMATIC,  # m = 1
         "a6aafc05410a9c5059c8049dbe7d05817b2e9a57104cfffbae391e5af8247011",
         "97327e43318e6eff70c086d8aa1075c930e3a0d40de61eed44ae9269f9eb1f2b"),
        # key sizes whose odd parts q are 1, 5, 4801 (p prime) and 49
        (SystemParams.make(4, 4096, 15, 40, sigma_w=15), KeyMode.CLASSIC,
         "3663364736bcfc876b0191820920d22179a117bb77a4265d65be8dc57a88dbac",
         "c59c1c4ead1b937e661ddc1facf53e7f1dbc4914dd0929d87233ab38847201c0"),
        (SystemParams.make(4, 4096, 15, 40, sigma_w=15), KeyMode.SYSTEMATIC,
         "cdd83ec693ebb88e4529e48240e1a6de0027d3c28c113e8701dcabdc8361e4da",
         "0fe4fd05da295a05004133fdae547ed8ea767da5ce53d849969444d6ab5f09f1"),
        (SystemParams.make(4, 5120, 15, 40, sigma_w=15), KeyMode.CLASSIC,
         "c691b31f02d75a16360461c93ed0baa81e3f88931a81851b6a271a8c0e8ad262",
         "9284efb4c530963f18f1052675f08eb92120b7b96713d5ee105338272402ba98"),
        (SystemParams.make(4, 5120, 15, 40, sigma_w=15), KeyMode.SYSTEMATIC,
         "064eda1d367ddeb868e4c0f1d7f4a6306907989537487ccab02d364586d93f5b",
         "a8d898c94665285276c55a6fb63ae8caca2c9244d2150280fc9804fb1a413da7"),
        (SystemParams.make(4, 4801, 15, 40, sigma_w=15), KeyMode.CLASSIC,
         "a1d6ad03155e2fc83519bf0a58546bac7038abbf199c4a8bb6c08d811e319973",
         "6285f7440324aeb3ebe54cbf185f2441bb9a69af3928b3e458cbc07f6ed1efc4"),
        (SystemParams.make(4, 4801, 15, 40, sigma_w=15), KeyMode.SYSTEMATIC,
         "2f2f8b44c04d6e85bd29f9264bbc41b614ae3e1ea3e411bbecfd8de15a26d998",
         "55be66e117699688e25ad6f4cab53ce0bb8cdf5dcceae5ab1807a7d7b99f99fc"),
        (SystemParams.make(4, 6272, 15, 40, sigma_w=15), KeyMode.CLASSIC,
         "fea484e2a725f96d7f21a467ef5f680f28249911497ba552f8482d708b6bf43c",
         "07020ae2d7cc7680c130ddfece06340775e27150e152287d7df5575ad3cc1d8d"),
        (SystemParams.make(4, 6272, 15, 40, sigma_w=15), KeyMode.SYSTEMATIC,
         "55b96470455cc04777387658fb2bb857c2ee158a2a657b40936d18c58fa9f9c5",
         "d53572bc2b9a330c4bea11e26ab6e51617abb013db51c1d8380ff707f8cde70d"),
    ]

    def test_deterministic(self, toy_params, tmp_path):
        sk1, pk1 = keygen(toy_params, 77)
        sk2, pk2 = keygen(toy_params, 77)
        assert sk1 == sk2
        save_public_key(pk1, tmp_path / "a.pk")
        save_public_key(pk2, tmp_path / "b.pk")
        assert (tmp_path / "a.pk").read_bytes() == (tmp_path / "b.pk").read_bytes()
        for params, mode, sk_digest, pk_digest in self.GOLDEN:
            sk, pk = keygen(params, 77, mode)
            save_private_key(sk, tmp_path / "g.sk")
            save_public_key(pk, tmp_path / "g.pk")
            assert hashlib.sha256((tmp_path / "g.sk").read_bytes()).hexdigest() == sk_digest
            assert hashlib.sha256((tmp_path / "g.pk").read_bytes()).hexdigest() == pk_digest

    @pytest.mark.parametrize("mode", list(KeyMode))
    def test_inverts_only_accepted_matrices(self, monkeypatch, mode):
        # qc_invert never fails on a matrix qc_is_invertible accepts, so the one
        # qc_invert per S and Q is the one that returns the inverse
        calls = []
        monkeypatch.setattr(qcmc.crypto, "qc_invert",
                            lambda m: calls.append(m) or qc_invert(m))
        sk, _ = keygen(SystemParams.make(4, 4096, 15, 47, sigma_w=15), 0xC0FFEE, mode)
        assert calls == [sk.Q, sk.S]

    @pytest.mark.parametrize("mode, message", [
        (KeyMode.CLASSIC, "no invertible S within the sampling budget"),
        (KeyMode.SYSTEMATIC, "no systematic form within the sampling budget")])
    def test_sampling_budget_exhausted(self, monkeypatch, mode, message):
        # a determinant test that accepts only n0 x n0 matrices keeps every Q and
        # rejects every S, so each mode draws KEYGEN_BUDGET candidate S and gives up
        params = SystemParams.make(2, 67, 5, 2, sigma_w=6)  # m = 3
        rejected = []
        monkeypatch.setattr(
            qcmc.crypto, "qc_is_invertible",
            lambda m: qc_is_invertible(m) if m.rows0 == params.n0 else rejected.append(m))
        with pytest.raises(KeygenFailure, match=message):
            keygen(params, 3, mode)
        assert len(rejected) == KEYGEN_BUDGET

    def test_one_expansion_per_draw_at_odd_p(self, monkeypatch):
        # at odd p, q = p: qc_invert reuses the determinant expansion that accepted
        # the draw, so there is one _minors miss per draw and one hit per S and Q
        draws = []
        monkeypatch.setattr(qcmc.crypto, "qc_is_invertible",
                            lambda m: draws.append(m) or qc_is_invertible(m))
        qcmc.gf2._minors.cache_clear()
        sk, _ = keygen(SystemParams.make(4, 4801, 15, 20, sigma_w=15), 5)
        info = qcmc.gf2._minors.cache_info()
        assert draws[-1] == sk.S and len(draws) > 2
        assert (info.misses, info.hits) == (len(draws), 2)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_keeps_s_that_elimination_rejects(self, monkeypatch, seed):
        # at p = 21 = 3 * 7 block Gauss-Jordan elimination finds no unit pivot
        # for the kept S at some step, so it would have drawn another S
        inverts, inverses = [], []
        monkeypatch.setattr(qcmc.crypto, "qc_invert",
                            lambda m: inverts.append(m) or qc_invert(m))
        monkeypatch.setattr(qcmc.gf2, "poly_inverse",
                            lambda a: inverses.append(a) or poly_inverse(a))
        sk, _ = keygen(SystemParams.make(3, 21, 3, 1, sigma_w=3), seed)
        assert inverts == [sk.Q, sk.S] and len(inverses) == len(inverts)
        with pytest.raises(SingularMatrixError):
            elimination_invert(sk.S)
        assert qc_mul(sk.S, qc_invert(sk.S)) == QcMatrix.identity(2, 21)

    def test_dense_oracle_full_pipeline(self):
        # classic mode at p=8: G' = S^-1 G Q^-1 checked against dense algebra
        params = SystemParams.make(2, 8, 3, 1, sigma_w=3)
        sk, pk = keygen(params, 3)
        S, G = sk.S.expand(), systematic_generator(sk.h).expand()
        Q = sk.Q.expand()
        S_inv, Q_inv = gf2_inv(S), gf2_inv(Q)
        expected = gf2_matmul(gf2_matmul(S_inv, G), Q_inv)
        assert np.array_equal(pk.Gp.expand(), expected)
        # private relation G' * (H Q^T)^T = 0 densely
        H = sk.h.to_qc_matrix().expand()
        HQt = gf2_matmul(H, Q.T)
        assert not gf2_matmul(pk.Gp.expand(), HQt.T).any()

    def test_systematic_m1_public_key_is_private_generator(self):
        params = SystemParams.make(2, 64, 5, 2)
        sk, pk = keygen(params, 11, KeyMode.SYSTEMATIC)
        assert sk.Q == QcMatrix.identity(params.n0, params.p)
        assert pk.Gp == systematic_generator(sk.h)
        assert pk.payload_bits == params.k0 * params.p

    def test_systematic_dense_oracle(self):
        # Gp is the row-reduced form of G Q^-1, i.e. A^-1 G Q^-1 with A the
        # left block column; checked against dense GF(2) algebra at p=16
        params = SystemParams.make(2, 16, 3, 1, sigma_w=3)
        sk, pk = keygen(params, 3, KeyMode.SYSTEMATIC)
        G = systematic_generator(sk.h).expand()
        expected = gf2_matmul(gf2_inv(sk.S.expand()),
                              gf2_matmul(G, gf2_inv(sk.Q.expand())))
        assert np.array_equal(pk.Gp.expand(), expected)
        assert np.array_equal(expected[:, :16], np.eye(16, dtype=np.uint8))

    def test_irregular_w_roundtrip(self):
        params = SystemParams.make(4, 256, 5, 2, sigma_w=13)  # m = 13/4
        sk, pk = keygen(params, 99)
        u = random_message(params.k, 0)
        c = encrypt(pk, u, SeedStream(1, "e"))
        assert np.array_equal(decrypt(sk, c), u)

    def test_systematic_m_gt_1_keeps_q(self):
        params = SystemParams.make(2, 64, 5, 2, sigma_w=6)
        sk, pk = keygen(params, 12, KeyMode.SYSTEMATIC)
        assert sk.Q != QcMatrix.identity(params.n0, params.p)
        assert pk.payload_bits == params.k0 * params.p
        # left block column must be the identity
        for i in range(params.k0):
            for j in range(params.k0):
                expected = 1 if i == j else 0
                assert pk.Gp.blocks[i][j].weight == expected

    def test_rdf_design_mode(self):
        params = SystemParams.make(4, 211, 5, 3)
        sk, pk = keygen(params, 13, h_design="rdf")
        hp = public_parity_check(sk)
        prod = qc_mul(pk.Gp, qc_transpose(hp))
        assert all(blk.bits == 0 for row in prod.blocks for blk in row)

    def test_bad_design_name(self, toy_params):
        with pytest.raises(ParameterError):
            keygen(toy_params, 1, h_design="fancy")

    def test_t_prime_of_half_n_rejected(self):
        params = SystemParams.make(2, 64, 5, 30, sigma_w=6)  # t' = ceil(3 * 30), n = 128
        with pytest.raises(ParameterError, match=r"t=30 with m=3 gives t'=90 >= n/2=64"):
            keygen(params, 1)


class TestEncrypt:
    def test_error_weight_exact(self, toy_keys, toy_params):
        sk, pk = toy_keys
        u = random_message(toy_params.k, 0)
        c = encrypt(pk, u, SeedStream(1, "e"))
        diff = c ^ qc_vec_mul(u, pk.Gp)
        assert int(diff.sum()) == toy_params.t

    def test_deterministic(self, toy_keys, toy_params):
        _, pk = toy_keys
        u = random_message(toy_params.k, 1)
        c1 = encrypt(pk, u, SeedStream(2, "e"))
        c2 = encrypt(pk, u, SeedStream(2, "e"))
        assert np.array_equal(c1, c2)

    def test_zero_errors_gives_codeword(self):
        params = SystemParams.make(2, 64, 5, 0)
        sk, pk = keygen(params, 21)
        u = random_message(params.k, 2)
        c = encrypt(pk, u, SeedStream(3, "e"))
        hp = public_parity_check(sk)
        assert not qc_vec_mul(c, qc_transpose(hp)).any()

    def test_length_check(self, toy_keys):
        _, pk = toy_keys
        with pytest.raises(ParameterError):
            encrypt(pk, np.zeros(3, dtype=np.uint8), SeedStream(4, "e"))

    @pytest.mark.parametrize("entry", [2, 0.7, -1])
    def test_entries_other_than_0_and_1_rejected(self, odd_k_keys, entry):
        # uint8 conversion used to encrypt 2 and 0.7 as 0
        _, pk = odd_k_keys
        u = with_entry(random_message(pk.params.k, 5), 3, entry)
        with pytest.raises(ParameterError, match="word entries must be 0 or 1"):
            encrypt(pk, u, SeedStream(4, "e"))

    def test_error_vector_weight(self):
        rng = SeedStream(5, "e")
        e = random_error_vector(100, 7, rng)
        assert e.sum() == 7 and e.shape == (100,)


class TestDecrypt:
    def test_roundtrip_all_decoders(self, toy_keys, toy_params):
        sk, pk = toy_keys
        for seed in range(5):
            u = random_message(toy_params.k, seed)
            c = encrypt(pk, u, SeedStream(seed, "e"))
            assert np.array_equal(decrypt(sk, c), u)  # SPA default
            assert np.array_equal(
                decrypt(sk, c, DecoderConfig(Algorithm.BF_VARIABLE)), u)

    def test_roundtrip_systematic_modes(self, toy_params):
        for sigma in (2, 6):
            params = SystemParams.make(2, 256, 5, 2, sigma_w=sigma)
            sk, pk = keygen(params, 5, KeyMode.SYSTEMATIC)
            u = random_message(params.k, 3)
            c = encrypt(pk, u, SeedStream(9, "e"))
            assert np.array_equal(decrypt(sk, c), u)

    def test_zero_error_configuration(self):
        params = SystemParams.make(2, 64, 5, 0)
        sk, pk = keygen(params, 22)
        u = random_message(params.k, 4)
        c = encrypt(pk, u, SeedStream(6, "e"))
        assert np.array_equal(decrypt(sk, c), u)

    def test_weight_of_transformed_error_bounded(self, toy_params):
        sk, pk = keygen(toy_params, 41)
        m_max = max(sum(row) for row in toy_params.W)
        for seed in range(10):
            e = random_error_vector(toy_params.n, toy_params.t, SeedStream(seed, "x"))
            eq = qc_vec_mul(e, sk.Q)
            assert int(eq.sum()) <= m_max * toy_params.t

    def test_corrupted_beyond_capacity_raises(self, toy_keys, toy_params):
        sk, pk = toy_keys
        u = random_message(toy_params.k, 9)
        c = encrypt(pk, u, SeedStream(10, "e"))
        c_bad = c.copy()
        c_bad[: toy_params.n // 2] ^= 1  # massive corruption
        with pytest.raises(DecodingFailure):
            decrypt(sk, c_bad, DecoderConfig(Algorithm.BF_VARIABLE, max_iterations=30))

    def test_ciphertext_length_check(self, toy_keys):
        sk, _ = toy_keys
        with pytest.raises(ParameterError):
            decrypt(sk, np.zeros(7, dtype=np.uint8))

    @pytest.mark.parametrize("entry", [3, 2, 0.7])
    def test_entries_other_than_0_and_1_rejected(self, odd_k_keys, entry):
        # a 3 in place of a 1 used to decrypt as that 1, a 2 or 0.7 as a 0
        sk, pk = odd_k_keys
        u = random_message(pk.params.k, 6)
        c = encrypt(pk, u, SeedStream(7, "e"))
        assert np.array_equal(decrypt(sk, c), u)
        c = with_entry(c, np.flatnonzero(c)[0], entry)
        with pytest.raises(ParameterError, match="word entries must be 0 or 1"):
            decrypt(sk, c)


class TestSerialization:
    def test_private_roundtrip(self, toy_keys, tmp_path):
        sk, _ = toy_keys
        path = tmp_path / "key.sk"
        save_private_key(sk, path)
        loaded = load_private_key(path)
        assert loaded.params == sk.params
        assert loaded.h == sk.h
        assert loaded.S == sk.S and loaded.Q == sk.Q
        assert loaded.seed == sk.seed
        assert loaded.mode == sk.mode

    def test_public_roundtrip_both_modes(self, toy_params, tmp_path):
        for mode in (KeyMode.CLASSIC, KeyMode.SYSTEMATIC):
            sk, pk = keygen(toy_params, 51, mode)
            path = tmp_path / f"{mode.value}.pk"
            save_public_key(pk, path)
            loaded = load_public_key(path)
            assert loaded.Gp == pk.Gp
            assert loaded.mode == mode

    def test_systematic_payload_is_k0_blocks(self, tmp_path):
        # (n0-1)*p payload bits; the identity part is never written
        params = SystemParams.make(4, 64, 3, 2)
        sk, pk = keygen(params, 52, KeyMode.SYSTEMATIC)
        path = tmp_path / "sys.pk"
        save_public_key(pk, path)
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        poly_lines = lines[3:]
        assert len(poly_lines) == params.k0
        assert sum(len(ln) for ln in poly_lines) * 4 == pk.payload_bits

    def test_public_file_never_contains_private_blocks(self, tmp_path):
        params = SystemParams.make(4, 64, 3, 2)
        sk, pk = keygen(params, 53, KeyMode.SYSTEMATIC)
        path = tmp_path / "sys2.pk"
        save_public_key(pk, path)
        content = path.read_text()
        for blk in sk.h.blocks:
            assert blk.to_poly().to_hex() not in content.splitlines()[3:]

    def test_ciphertext_roundtrip(self, toy_keys, toy_params, tmp_path):
        _, pk = toy_keys
        u = random_message(toy_params.k, 12)
        c = encrypt(pk, u, SeedStream(13, "e"))
        path = tmp_path / "msg.ct"
        save_ciphertext(c, path)
        assert np.array_equal(load_ciphertext(path), c)
        assert path.read_text().splitlines()[0] == "QCCT1"

    def test_magic_checked(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_text("NOPE x\n")
        with pytest.raises(ParameterError):
            load_public_key(bad)
        with pytest.raises(ParameterError):
            load_ciphertext(bad)

    def test_loaded_key_decrypts(self, toy_keys, toy_params, tmp_path):
        sk, pk = toy_keys
        save_private_key(sk, tmp_path / "k.sk")
        save_public_key(pk, tmp_path / "k.pk")
        sk2 = load_private_key(tmp_path / "k.sk")
        pk2 = load_public_key(tmp_path / "k.pk")
        u = random_message(toy_params.k, 14)
        c = encrypt(pk2, u, SeedStream(15, "e"))
        assert np.array_equal(decrypt(sk2, c), u)

    def test_load_checks_determinants_without_inverting(self, monkeypatch, tmp_path):
        # S = [[1 + x, 1], [1 + x + x^2, 1]] at p = 21: no unit in block column
        # 0, so elimination rejects it, but its determinant x^2 is a unit
        params = SystemParams.make(3, 21, 3, 1, sigma_w=3)
        sk, _ = keygen(params, 5)
        crafted = QcMatrix([
            [BitPolynomial.from_support(21, [0, 1]), BitPolynomial.one(21)],
            [BitPolynomial.from_support(21, [0, 1, 2]), BitPolynomial.one(21)],
        ])
        assert np.array_equal(qc_invert(crafted).expand(), gf2_inv(crafted.expand()))
        save_private_key(dataclasses.replace(sk, S=crafted), tmp_path / "k.sk")
        monkeypatch.setattr(qcmc.crypto, "qc_invert", None)
        assert load_private_key(tmp_path / "k.sk").S == crafted

    def test_seed_field_decides_key_kind(self, toy_keys, tmp_path):
        sk, pk = toy_keys
        save_private_key(sk, tmp_path / "k.sk")
        save_public_key(pk, tmp_path / "k.pk")
        assert load_key(tmp_path / "k.sk") == sk
        assert load_key(tmp_path / "k.pk") == pk
        with pytest.raises(ParameterError, match="holds a PrivateKey, not a PublicKey"):
            load_public_key(tmp_path / "k.sk")
        with pytest.raises(ParameterError, match="holds a PublicKey, not a PrivateKey"):
            load_private_key(tmp_path / "k.pk")
