"""Tests for symmetrizer spaces: system assembly, witness constructions,
random experiments, and the Hodge-frame bridge."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from ivhs.errors import BudgetExceededError, PreconditionError
from ivhs.fields import FieldSpec, default_prime_field
from ivhs.hodge import (
    ChartData,
    HodgeShape,
    HorizontalElement,
    IntegralElementCandidate,
    build_transpose_element,
    theta,
)
from ivhs import symmetrizers
from ivhs.linalg import Matrix, Subspace, random_matrix
from ivhs.symmetrizers import (
    CompositionSetting,
    SubspaceE,
    fiber_forward_check,
    genericity_experiment,
    hodge_symmetrizer_setting,
    lemma3_rank_one_construction,
    prop4_construction,
    symmetrizer_dimension,
    symmetrizer_space,
    symmetrizer_system,
    verify_candidate_symmetrizer,
)

from oracle import naive_kernel_mod, naive_rank_fraction, naive_rank_mod

F = default_prime_field()
P = F.modulus


def naive_symmetrizer_rows(e: SubspaceE) -> list[list]:
    """Entry-by-entry assembly of the pair conditions on the whole of q, g2
    rows at once.  Unknown x[a][u][v] = q(alpha_a)[u, v] sits at column
    (a * g2 + u) * g1 + v; entries are left unreduced."""
    s = e.setting
    k = e.k
    n_unknowns = k * s.g2 * s.g1
    rows = []
    for a in range(k):
        for b in range(a + 1, k):
            alpha_a = e.basis[a].to_rows()
            alpha_b = e.basis[b].to_rows()
            for i in range(s.g2):
                for j in range(s.g0):
                    row = [0] * n_unknowns
                    for t in range(s.g1):
                        row[(b * s.g2 + i) * s.g1 + t] += alpha_a[t][j]
                        row[(a * s.g2 + i) * s.g1 + t] -= alpha_b[t][j]
                    rows.append(row)
    return rows


def naive_symmetrizer_dimension(e: SubspaceE) -> int:
    """Kernel dimension of the naive rows by the naive rank oracles."""
    s = e.setting
    n_unknowns = e.k * s.g2 * s.g1
    rows = naive_symmetrizer_rows(e)
    if not rows:
        return n_unknowns
    if s.field.is_prime_field:
        return n_unknowns - naive_rank_mod(rows, s.field.modulus)
    return n_unknowns - naive_rank_fraction(rows)


def random_subspace_e(setting, k, seed):
    for attempt in range(32):
        rng = np.random.default_rng((seed, attempt))
        mats = tuple(random_matrix(setting.field, setting.g1, setting.g0, rng) for _ in range(k))
        try:
            return SubspaceE(setting, mats)
        except PreconditionError:
            continue
    raise AssertionError("sampling failed")


class TestSetting:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            CompositionSetting(0, 1, 1, F)
        with pytest.raises(PreconditionError):
            CompositionSetting(2, -1, 1, F)

    def test_ceiling_and_threshold(self):
        assert CompositionSetting(2, 4, 1, F).p == 2
        assert CompositionSetting(2, 5, 1, F).p == 3
        assert CompositionSetting(3, 1, 1, F).p == 1
        assert CompositionSetting(3, 0, 1, F).p == 0
        assert CompositionSetting(2, 4, 1, F).multiplication_threshold == 6
        assert CompositionSetting(4, 9, 2, F).hom_dimension == 36


class TestSubspaceE:
    def test_shape_validation(self):
        s = CompositionSetting(2, 3, 1, F)
        with pytest.raises(PreconditionError):
            SubspaceE(s, (Matrix.zeros(F, 2, 3),))

    def test_dependent_basis_rejected(self):
        s = CompositionSetting(2, 2, 1, F)
        m = random_matrix(F, 2, 2, 5)
        with pytest.raises(PreconditionError):
            SubspaceE(s, (m, m.scale(3)))

    def test_k(self):
        s = CompositionSetting(2, 2, 1, F)
        e = random_subspace_e(s, 3, 7)
        assert e.k == 3


class TestSystem:
    def test_dimensions(self):
        s = CompositionSetting(3, 4, 2, F)
        e = random_subspace_e(s, 3, 11)
        sys = symmetrizer_system(e)
        assert sys.shape == (3 * 3, 3 * 4)  # C(3,2) g0  x  k g1: one row of q

    def test_k1_has_no_conditions(self):
        s = CompositionSetting(3, 4, 2, F)
        e = random_subspace_e(s, 1, 13)
        sys = symmetrizer_system(e)
        assert sys.shape == (0, 4)
        assert symmetrizer_space(e).dimension == 2 * 4

    def test_matches_naive_assembly_on_grid(self):
        seed = 100
        for g0 in (2, 3):
            for g1 in (1, 2, 3):
                for g2 in (1, 2):
                    s = CompositionSetting(g0, g1, g2, F)
                    for k in (1, 2, 3):
                        if k > s.hom_dimension:
                            continue
                        seed += 1
                        e = random_subspace_e(s, k, seed)
                        fast = symmetrizer_space(e).dimension
                        assert fast == naive_symmetrizer_dimension(e), (g0, g1, g2, k)

    def test_basis_matches_naive_kernel_of_full_system(self):
        # The tensored-up basis is the canonical RREF kernel basis of the
        # g2-fold system: same vectors, same order.
        seed = 200
        tensored = 0
        for g0 in (1, 2, 3):
            for g1 in range(4):
                for g2 in range(4):
                    s = CompositionSetting(g0, g1, g2, F)
                    for k in range(4):
                        if k > s.hom_dimension:
                            continue
                        seed += 1
                        e = random_subspace_e(s, k, seed)
                        n = k * g2 * g1
                        rows = naive_symmetrizer_rows(e)
                        if rows:
                            want = naive_kernel_mod(rows, P)
                        else:
                            want = [[int(i == j) for j in range(n)] for i in range(n)]
                        got = [b.flatten() for b in symmetrizer_space(e).basis]
                        assert got == want, (g0, g1, g2, k)
                        tensored += k >= 2 and g2 >= 2 and bool(want)
        assert tensored > 0

    @pytest.mark.parametrize("g2", [2, 3])
    def test_rational_dimension_matches_naive_rank(self, g2):
        # Rank-deficient integer maps through one hyperplane H of G^1: every
        # q that vanishes on H is a symmetrizer, so the space is nonzero.
        q = FieldSpec.rationals()
        for g0, g1, k in [(2, 2, 2), (2, 3, 3), (3, 2, 3), (3, 3, 4)]:
            s = CompositionSetting(g0, g1, g2, q)
            rng = np.random.default_rng((g0, g1, g2, k))
            hyperplane = rng.integers(-3, 4, (g1, g1 - 1))
            for _ in range(32):
                mats = tuple(
                    Matrix.from_rows(q, (hyperplane @ rng.integers(-3, 4, (g1 - 1, g0))).tolist())
                    for _ in range(k)
                )
                try:
                    e = SubspaceE(s, mats)
                    break
                except PreconditionError:
                    continue
            else:
                raise AssertionError("sampling failed")
            dim = symmetrizer_space(e).dimension
            assert dim > 0
            assert dim == k * g2 * g1 - naive_rank_fraction(naive_symmetrizer_rows(e)), (g0, g1, k)

    def test_every_kernel_element_satisfies_identity(self):
        s = CompositionSetting(2, 3, 2, F)
        e = random_subspace_e(s, 2, 17)
        space = symmetrizer_space(e)
        assert space.dimension > 0
        for idx in range(space.dimension):
            maps = space.element_maps(idx)
            assert all(m.shape == (2, 3) for m in maps)
            result = verify_candidate_symmetrizer(list(e.basis), maps)
            assert result.holds
            assert result.pairs_checked == 1

    def test_restriction_to_subbasis_still_symmetrizes(self):
        # dropping the last basis element keeps a sub-block of the system:
        # restricted kernel elements satisfy the restricted conditions
        s = CompositionSetting(2, 3, 1, F)
        e = random_subspace_e(s, 3, 19)
        space = symmetrizer_space(e)
        sub = list(e.basis[:2])
        for idx in range(space.dimension):
            maps = space.element_maps(idx)[:2]
            assert verify_candidate_symmetrizer(sub, maps).holds

    def test_budget(self, monkeypatch):
        s = CompositionSetting(2, 3, 2, F)
        e = random_subspace_e(s, 2, 23)
        monkeypatch.setenv("IVHS_MAX_UNKNOWNS", "5")
        with pytest.raises(BudgetExceededError):
            symmetrizer_space(e)

    def test_base_change_invariance(self):
        # dim Symm is unchanged by GL(G^0) x GL(G^1) moves and basis remixes
        s = CompositionSetting(2, 3, 2, F)
        e = random_subspace_e(s, 3, 29)
        base = symmetrizer_dimension(e)
        rng = np.random.default_rng(31)
        for _ in range(5):
            u = random_matrix(F, 3, 3, rng)
            v = random_matrix(F, 2, 2, rng)
            mix = random_matrix(F, 3, 3, rng)
            if u.rank() < 3 or v.rank() < 2 or mix.rank() < 3:
                continue
            moved = [u @ a @ v for a in e.basis]
            coeffs = mix.to_rows()
            remixed = []
            for row in coeffs:
                acc = Matrix.zeros(F, 3, 2)
                for c, m in zip(row, moved):
                    acc = acc + m.scale(c)
                remixed.append(acc)
            e2 = SubspaceE(s, tuple(remixed))
            assert symmetrizer_dimension(e2) == base


def integer_subspace_e(setting, k, seed, kind="random"):
    """k independent small-integer maps over the setting's field.

    ``kind`` "hyperplane": every map goes through one fixed hyperplane of G^1,
    so every q vanishing on it is a symmetrizer.  "flag" (g0 = g1): the
    identity and maps that keep the first g1 - 1 coordinates; their
    commutators land there, so one row of q has a one-dimensional symmetrizer
    space, spanned by q(1) = the last coordinate and q(alpha) = q(1) alpha.
    """
    g0, g1 = setting.g0, setting.g1
    rng = np.random.default_rng(seed)
    through = rng.integers(-3, 4, (g1, g1 - 1)) if kind == "hyperplane" else np.eye(g1, dtype=np.int64)
    for _ in range(32):
        arrays = [through @ rng.integers(-3, 4, (through.shape[1], g0)) for _ in range(k)]
        if kind == "flag":
            arrays[0] = np.eye(g1, dtype=np.int64)
            for m in arrays[1:]:
                m[-1, :-1] = 0
        try:
            return SubspaceE(setting, tuple(Matrix.from_rows(setting.field, m.tolist()) for m in arrays))
        except PreconditionError:
            continue
    raise AssertionError("sampling failed")


GATE_FIELDS = [FieldSpec.prime(10007), FieldSpec.prime(2147483629), FieldSpec.rationals()]

# (g0, g1, g2, k, kind of E, system shape, symmetrizer dimension or None
# for any positive one)
GATE_CASES = [
    (2, 2, 2, 4, "random", "tall", 0),  # E = Hom(G^0, G^1)
    (3, 2, 1, 4, "random", "tall", 0),
    (3, 2, 2, 3, "hyperplane", "tall", None),
    (3, 3, 1, 4, "hyperplane", "tall", None),
    (3, 3, 2, 4, "flag", "tall", 2),  # rank one short of full
    (2, 2, 1, 3, "random", "square", 0),
    (3, 3, 2, 3, "hyperplane", "square", None),
    (2, 2, 2, 3, "flag", "square", 2),
    (2, 3, 2, 2, "random", "wide", None),
    (2, 3, 3, 3, "hyperplane", "wide", None),
    (3, 4, 2, 1, "random", "wide", 8),  # k = 1: no rows at all
]


class TestRankGate:
    @pytest.mark.parametrize("field", GATE_FIELDS, ids=lambda f: f.kind if not f.is_prime_field else str(f.modulus))
    @pytest.mark.parametrize("case", GATE_CASES, ids=lambda c: "{}x{}x{}-k{}".format(*c[:4]))
    def test_dimension_matches_oracle(self, field, case):
        g0, g1, g2, k, kind, shape, want = case
        e = integer_subspace_e(CompositionSetting(g0, g1, g2, field), k, (g0, g1, g2, k), kind)
        system = symmetrizer_system(e)
        assert shape == ("tall" if system.rows > system.cols else "square" if system.rows == system.cols else "wide")
        if k == 1:
            assert system.rows == 0
        dim = symmetrizer_space(e).dimension
        assert dim == naive_symmetrizer_dimension(e)
        assert dim == want if want is not None else dim > 0

    @pytest.mark.parametrize("field", GATE_FIELDS, ids=lambda f: f.kind if not f.is_prime_field else str(f.modulus))
    def test_free_unknowns_are_the_non_pivot_columns(self, field):
        e = integer_subspace_e(CompositionSetting(3, 2, 2, field), 3, 2, "hyperplane")
        system = symmetrizer_system(e)
        _, pivots = system.rref()
        space = symmetrizer_space(e)
        assert space.kernel.rows > 0
        assert space.free == tuple(np.delete(np.arange(system.cols), pivots).tolist())
        # Kernel row j is the solution with free unknown free[j] = 1 and the
        # other free unknowns zero.
        assert space.kernel.col_select(space.free) == Matrix.identity(field, len(space.free))

    @pytest.fixture
    def elim_calls(self, monkeypatch):
        calls = Counter()
        for name in ("rank", "rref", "kernel_basis"):
            def counted(self, *args, _name=name, _orig=getattr(Matrix, name), **kwargs):
                calls[_name] += 1
                return _orig(self, *args, **kwargs)
            monkeypatch.setattr(Matrix, name, counted)
        return calls

    def test_zero_space_costs_one_rank(self, elim_calls):
        e = integer_subspace_e(CompositionSetting(2, 2, 2, F), 4, 1)
        elim_calls.clear()
        assert symmetrizer_space(e).dimension == 0
        assert elim_calls == {"rank": 1}

    def test_nonzero_space_is_solved_once(self, elim_calls):
        tall = integer_subspace_e(CompositionSetting(3, 2, 2, F), 3, 2, "hyperplane")
        wide = integer_subspace_e(CompositionSetting(2, 3, 2, F), 2, 3)
        elim_calls.clear()
        assert symmetrizer_space(tall).dimension > 0
        assert elim_calls == {"rank": 1, "rref": 1}
        elim_calls.clear()
        assert symmetrizer_space(wide).dimension > 0
        assert elim_calls == {"rref": 1}  # a wide system skips the rank

    def test_kernel_is_verified_once_and_expanded_when_read(self, monkeypatch):
        calls = Counter()

        def counted(name, orig):
            def call(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            return call

        monkeypatch.setattr(symmetrizers, "verify_candidate_symmetrizer",
                            counted("verify", symmetrizers.verify_candidate_symmetrizer))
        monkeypatch.setattr(Matrix, "hstack", staticmethod(counted("hstack", Matrix.hstack)))
        e = integer_subspace_e(CompositionSetting(3, 2, 2, F), 3, 2, "hyperplane")
        space = symmetrizer_space(e)
        assert space.dimension > 1
        assert calls == {"verify": 1}
        basis = space.basis
        assert len(basis) == space.dimension and calls["hstack"] == space.dimension

    @pytest.mark.parametrize("field", GATE_FIELDS, ids=lambda f: f.kind if not f.is_prime_field else str(f.modulus))
    def test_corrupted_system_fails_the_check(self, monkeypatch, field):
        # Dropping the first pair's g0 equations leaves kernel vectors that
        # break that pair's identity: the one stacked check must catch them.
        e = integer_subspace_e(CompositionSetting(2, 2, 1, field), 3, (2, 2, 1, 3))
        system = symmetrizer_system(e)
        corrupted = system.row_select(range(e.setting.g0, system.rows))
        assert corrupted.rank() < system.rank() == system.cols
        monkeypatch.setattr(symmetrizers, "symmetrizer_system", lambda _: corrupted)
        with pytest.raises(AssertionError, match="symmetrizer identity"):
            symmetrizer_space(e)

    @pytest.mark.parametrize("dims", [(2, 4, 1), (3, 6, 2), (2, 5, 1), (3, 5, 1), (3, 2, 2), (2, 1, 1)])
    def test_prop4_solves_each_subspace_once(self, monkeypatch, elim_calls, dims):
        # A solve is a symmetrizer_space call that assembles its own system.
        entered, solved = [], []

        def space_spy(e, *args, _orig=symmetrizers.symmetrizer_space, **kwargs):
            entered.append(e)
            try:
                return _orig(e, *args, **kwargs)
            finally:
                entered.pop()

        def system_spy(e, _orig=symmetrizers.symmetrizer_system):
            if entered and entered[-1] is e:
                solved.append(e)
            return _orig(e)

        monkeypatch.setattr(symmetrizers, "symmetrizer_space", space_spy)
        monkeypatch.setattr(symmetrizers, "symmetrizer_system", system_spy)
        setting = CompositionSetting(*dims, F)
        out = prop4_construction(setting, seed=1)
        bases = {tuple(tuple(m.flatten()) for m in e.basis) for e in solved}
        assert len(bases) == len(solved), "a basis was solved twice"
        if setting.g1 % setting.g0 == 0:
            assert solved[-1] is out  # the divisible witness is the sampled subspace
        else:
            assert all(e is not out for e in solved), "the direct sum was solved whole"
        solved.clear()
        elim_calls.clear()
        assert symmetrizer_dimension(out) == 0
        assert solved == [] and not elim_calls

    @pytest.mark.parametrize("dims", [(2, 5, 1), (3, 5, 2), (3, 6, 1), (3, 2, 2)])
    def test_prop4_refuses_the_whole_sum_over_budget(self, monkeypatch, dims):
        setting = CompositionSetting(*dims, F)
        witness = prop4_construction(setting)
        n_unknowns = witness.k * setting.g2 * setting.g1
        monkeypatch.setenv("IVHS_MAX_UNKNOWNS", str(n_unknowns - 1))
        message = f"symmetrizer system has {n_unknowns} unknowns, beyond the cap of {n_unknowns - 1} "
        with pytest.raises(BudgetExceededError, match=message):
            prop4_construction(setting)
        # A kept space is refused under the lower cap too.
        with pytest.raises(BudgetExceededError, match=message):
            symmetrizer_dimension(witness)


def _small_integer_maps(field, rows, cols, k, rng):
    """k independent rows x cols maps with entries in -2..2, so that over
    every field some systems are rank deficient."""
    setting = CompositionSetting(cols, rows, 1, field)
    while True:
        arrays = rng.integers(-2, 3, size=(k, rows, cols))
        try:
            return SubspaceE(setting, tuple(Matrix.from_rows(field, a.tolist()) for a in arrays))
        except PreconditionError:
            continue


class TestBlockDecomposition:
    """dim Sym(E_0 + E_1) = dim Sym(E_0|B_0) + dim Sym(E_1|B_1) + dim ker(cross)
    when the maps of E_i land in the row block B_i of G^1."""

    @pytest.mark.parametrize("field", GATE_FIELDS, ids=lambda f: f.kind if not f.is_prime_field else str(f.modulus))
    def test_whole_system_is_the_blocks_plus_the_cross_system(self, field):
        rng = np.random.default_rng(27)
        nonzero_sym = nonzero_cross = 0
        for _ in range(40):
            g0, r0, r1 = (int(x) for x in rng.integers(1, 4, size=3))
            k0 = int(rng.integers(1, min(4, g0 * r0) + 1))
            k1 = int(rng.integers(1, min(4, g0 * r1) + 1))
            e0 = _small_integer_maps(field, r0, g0, k0, rng)
            e1 = _small_integer_maps(field, r1, g0, k1, rng)
            g1 = r0 + r1
            whole = SubspaceE(CompositionSetting(g0, g1, 1, field), tuple(
                [Matrix.vstack([m, Matrix.zeros(field, r1, g0)]) for m in e0.basis]
                + [Matrix.vstack([Matrix.zeros(field, r0, g0), m]) for m in e1.basis]))
            k = k0 + k1
            pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
            cross_rows = [t * g0 + j for t, (a, b) in enumerate(pairs) if a < k0 <= b for j in range(g0)]
            cross_cols = [a * g1 + r for a in range(k) for r in range(g1) if (a < k0) == (r >= r0)]
            other_rows = sorted(set(range(len(pairs) * g0)) - set(cross_rows))
            other_cols = sorted(set(range(k * g1)) - set(cross_cols))
            system = symmetrizer_system(whole)
            cross = system.row_select(cross_rows).col_select(cross_cols)
            assert symmetrizers._cross_block_system(whole, k0, r0) == cross
            # The cross rows and the inner rows share no unknown.
            assert system.row_select(cross_rows).col_select(other_cols).is_zero()
            assert system.row_select(other_rows).col_select(cross_cols).is_zero()
            cross_kernel = cross.cols - cross.rank()
            dim = symmetrizer_space(whole).dimension
            assert dim == symmetrizer_space(e0).dimension + symmetrizer_space(e1).dimension + cross_kernel
            nonzero_sym += dim > 0
            nonzero_cross += cross_kernel > 0
        assert nonzero_sym >= 10 and nonzero_cross >= 5, (nonzero_sym, nonzero_cross)


class TestVerifyCandidate:
    def test_positive_and_negative(self):
        s = CompositionSetting(2, 2, 2, F)
        e = random_subspace_e(s, 2, 37)
        zeros = [Matrix.zeros(F, 2, 2) for _ in range(2)]
        assert verify_candidate_symmetrizer(list(e.basis), zeros).holds
        bad = [Matrix.identity(F, 2), Matrix.zeros(F, 2, 2)]
        # q(alpha_1) alpha_0 = 0 but q(alpha_0) alpha_1 = alpha_1 != 0
        result = verify_candidate_symmetrizer(list(e.basis), bad)
        assert not result.holds
        assert result.pairs_checked == 0

    def test_explicit_pairs(self):
        s = CompositionSetting(2, 2, 1, F)
        e = random_subspace_e(s, 3, 41)
        zeros = [Matrix.zeros(F, 1, 2) for _ in range(3)]
        result = verify_candidate_symmetrizer(list(e.basis), zeros, pairs=[(0, 2)])
        assert result.holds and result.pairs_checked == 1
        with pytest.raises(PreconditionError):
            verify_candidate_symmetrizer(list(e.basis), zeros, pairs=[(0, 5)])

    def test_length_mismatch(self):
        s = CompositionSetting(2, 2, 1, F)
        e = random_subspace_e(s, 2, 43)
        with pytest.raises(PreconditionError):
            verify_candidate_symmetrizer(list(e.basis), [Matrix.zeros(F, 1, 2)])


class TestRankOnePair:
    @pytest.mark.parametrize("g0", [2, 3, 5])
    @pytest.mark.parametrize("g2", [1, 2])
    def test_vanishing(self, g0, g2):
        pair = lemma3_rank_one_construction(g0, g2, F)
        assert pair.setting.g1 == 1
        assert pair.k == 2
        assert all(m.rank() == 1 for m in pair.basis)
        assert symmetrizer_dimension(pair) == 0

    def test_needs_two_coordinates(self):
        with pytest.raises(PreconditionError):
            lemma3_rank_one_construction(1, 1, F)


# The first 16 hex digits of the sha256 of each Prop. 4 witness basis on the
# acceptance-5 grid, as (g0, seed): the digests for g1 = 1..7.  The basis does
# not depend on g2.
WITNESS_DIGESTS = {
    (2, 0): "96e2842b61378b27 3e5cbe6bbface98d bbd34c9223b28cc7 7442769f92ef1573"
            " eb92b1fc8f9a1ed2 9ff95efa285086e0 19cd3bd856fd417e",
    (3, 0): "828a6f07b74544ef 7215c08d109d2b01 aade9dbe882e3d65 9cbbe1adc80d1fd3"
            " ff888aadf9d0d5d8 c17cf979da53da87 902c2e628f870bdf",
    (4, 0): "e9f806e574598e84 f47a7ac0c8c52a0b 31445e13f5945924 d02a5356fa0d8de8"
            " 0d2ea04f8cc61ed3 51a80c6b087b1996 2a3b6431a0129838",
    (5, 0): "9a819e0352bb89c7 d1cf499725c8b466 fc1b016e71daa299 aaaaa941b5a02e4e"
            " a5ee7dd4598768e4 6409ec036100709a 79455161c666df89",
    (2, 1): "96e2842b61378b27 3724092e5607a6b7 5bb805fd93934e25 c8686767a8c119f8"
            " e1bb05053ce4054b 0491ff6fb78d7165 739934d51ac13a46",
    (3, 1): "828a6f07b74544ef c6edb5a31d821831 dd83b145871d2806 cac932e15b9316bb"
            " 806c3a49899b6b0d d2b69aa7a68f339a 3d9e2cc3a721cec1",
    (4, 1): "e9f806e574598e84 90389eb0942430f9 d9735e73a4d8655c e5448781bb5396a6"
            " a57454c730b48253 bd4ea20ac2dcc683 4caf7ab9ebf1e14b",
    (5, 1): "9a819e0352bb89c7 79146931384bd5ca 1606429603525232 eaedbf294a80322a"
            " 919ab0f35a1e39ab 9ddee8df12b686be add9948c7286cdc4",
}


def _basis_digest(e: SubspaceE) -> str:
    text = repr([[int(x) for x in m.flatten()] for m in e.basis])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestConstruction:
    def test_dimension_formula_on_grid(self):
        for g0 in (2, 3, 4, 5):
            for g1 in range(1, 8):
                for g2 in (1, 2):
                    setting = CompositionSetting(g0, g1, g2, F)
                    witness = prop4_construction(setting)
                    p = setting.p
                    tail = g1 - (p - 1) * g0
                    if g1 == 1:
                        want = 2
                    elif tail == 1:
                        want = 3 * p - 1
                    else:
                        want = 3 * p
                    assert witness.k == want, (g0, g1, g2)
                    assert witness.setting == setting

    @pytest.mark.parametrize("g0,g1,g2", [(2, 2, 1), (2, 5, 2), (3, 7, 1), (5, 3, 2)])
    def test_vanishing_re_verified(self, g0, g1, g2):
        setting = CompositionSetting(g0, g1, g2, F)
        witness = prop4_construction(setting)
        # A fresh subspace on the same basis holds no kept space: it is solved.
        assert symmetrizer_dimension(SubspaceE(witness.setting, witness.basis)) == 0

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("g0", [2, 3, 4, 5])
    def test_witness_bases_pinned(self, g0, seed):
        want = WITNESS_DIGESTS[(g0, seed)].split()
        for g1 in range(1, 8):
            for g2 in (1, 2):
                witness = prop4_construction(CompositionSetting(g0, g1, g2, F), seed=seed)
                assert _basis_digest(witness) == want[g1 - 1], (g0, g1, g2, seed)

    def test_cross_kernel_forces_the_retry(self, monkeypatch):
        # One free cross unknown makes Sym(E) nonzero: the construction must
        # move on to seed + 101, exactly as a whole solve would have.
        setting = CompositionSetting(3, 5, 1, F)
        want = prop4_construction(setting, seed=102).basis
        shapes = []

        def degenerate(e, k0, r0, _orig=symmetrizers._cross_block_system):
            cross = _orig(e, k0, r0)
            shapes.append(cross.shape)
            return cross if len(shapes) > 1 else Matrix.hstack([cross, Matrix.zeros(F, cross.rows, 1)])

        monkeypatch.setattr(symmetrizers, "_cross_block_system", degenerate)
        assert prop4_construction(setting, seed=1).basis == want
        assert len(shapes) == 2

    def test_deterministic(self):
        setting = CompositionSetting(3, 5, 2, F)
        a = prop4_construction(setting, seed=4)
        b = prop4_construction(setting, seed=4)
        assert a.basis == b.basis

    def test_rejects_degenerate_settings(self):
        with pytest.raises(PreconditionError):
            prop4_construction(CompositionSetting(1, 3, 1, F))
        with pytest.raises(PreconditionError):
            prop4_construction(CompositionSetting(2, 0, 1, F))


class TestExperiment:
    def test_deterministic(self):
        s = CompositionSetting(2, 3, 1, F)
        a = genericity_experiment(s, 3, 6, seed=9)
        b = genericity_experiment(s, 3, 6, seed=9)
        assert a.dimensions == b.dimensions
        assert a.threshold == 6  # p = 2

    def test_zero_at_threshold_in_divisible_settings(self):
        for g0, g1, g2 in [(2, 2, 1), (2, 4, 1), (3, 3, 2)]:
            s = CompositionSetting(g0, g1, g2, F)
            rep = genericity_experiment(s, s.multiplication_threshold, 6, seed=g0 * 100 + g1)
            assert rep.at_or_above_threshold
            assert rep.zero_fraction == 1.0

    def test_positive_below_threshold(self):
        s = CompositionSetting(2, 4, 2, F)
        rep = genericity_experiment(s, 3, 6, seed=2)
        assert not rep.at_or_above_threshold
        assert all(d > 0 for d in rep.dimensions)

    def test_report_dict(self):
        s = CompositionSetting(2, 2, 1, F)
        rep = genericity_experiment(s, 2, 3, seed=0)
        d = rep.as_dict()
        assert d["g0"] == 2 and d["k"] == 2 and d["trials"] == 3
        assert len(d["dimensions"]) == 3
        assert 0.0 <= d["zero_fraction"] <= 1.0

    def test_bad_arguments(self):
        s = CompositionSetting(2, 2, 1, F)
        with pytest.raises(PreconditionError):
            genericity_experiment(s, 0, 3)
        with pytest.raises(PreconditionError):
            genericity_experiment(s, 5, 3)
        with pytest.raises(PreconditionError):
            genericity_experiment(s, 2, 0)


WEIGHT3 = HodgeShape(3, (2, 3, 3, 2))


class TestHodgeBridge:
    def test_setting_from_shape(self):
        rows = [random_matrix(F, 3, 2, (71, i)).flatten() for i in range(2)]
        e0 = Subspace.from_rows(F, rows, ambient_dimension=6)
        setting, e = hodge_symmetrizer_setting(WEIGHT3, e0)
        assert (setting.g0, setting.g1, setting.g2) == (2, 3, 3)
        assert e.k == e0.dim
        for a in range(e.k):
            assert e.basis[a].flatten() == e0.basis.row(a)

    def test_weight_two_rejected(self):
        shape = HodgeShape(2, (1, 2, 1))
        with pytest.raises(PreconditionError):
            hodge_symmetrizer_setting(shape, Subspace.from_rows(F, [[1, 0]], ambient_dimension=2))

    def test_transpose_lift_passes_fiber_check(self):
        rows = [random_matrix(F, 3, 2, (73, i)).flatten() for i in range(2)]
        e0 = Subspace.from_rows(F, rows, ambient_dimension=6)
        cand = build_transpose_element(e0, WEIGHT3, F)
        result = fiber_forward_check(cand)
        assert result.holds
        assert result.pairs_checked == 1

    def test_integral_candidate_with_nonzero_part_passes(self):
        # alpha_1, alpha_2 the two coordinate inclusions, q values both the
        # all-ones matrix: C alpha_1 and C alpha_2 agree, so the lifted
        # plane is integral and its chart coordinate is a symmetrizer
        a1 = Matrix.from_rows(F, [[1, 0], [0, 1], [0, 0]])
        a2 = Matrix.from_rows(F, [[0, 0], [1, 0], [0, 1]])
        ones = Matrix.from_rows(F, [[1] * 3] * 3)
        e0 = Subspace.from_rows(F, [a1.flatten(), a2.flatten()], ambient_dimension=6)
        chart = ChartData(WEIGHT3, e0)
        part1 = Matrix.from_rows(F, [ones.flatten(), ones.flatten()], cols=9)
        # e0 is already in reduced form with these generators
        assert e0.basis.to_rows() == [a1.flatten(), a2.flatten()]
        cand = theta(chart, Matrix.zeros(F, 2, chart.w.dim), [part1])
        result = fiber_forward_check(cand, chart)
        assert result.holds
        result_default_chart = fiber_forward_check(cand)
        assert result_default_chart.holds

    def test_non_integral_candidate_rejected(self):
        rows = [random_matrix(F, 3, 2, (79, i)).flatten() for i in range(2)]
        e0 = Subspace.from_rows(F, rows, ambient_dimension=6)
        chart = ChartData(WEIGHT3, e0)
        sym_rows = []
        for a in range(2):
            m = random_matrix(F, 3, 3, (83, a))
            m = m + m.transpose()
            sym_rows.append(m.flatten())
        part1 = Matrix.from_rows(F, sym_rows, cols=9)
        cand = theta(chart, Matrix.zeros(F, 2, chart.w.dim), [part1])
        from ivhs.hodge import check_integral

        if check_integral(cand).ok:  # pragma: no cover - generic draws collide rarely
            pytest.skip("random draw happened to commute")
        with pytest.raises(PreconditionError):
            fiber_forward_check(cand, chart)

    @pytest.fixture
    def integrality_calls(self, monkeypatch):
        """The candidates ``hodge.check_integral`` is called on, in order."""
        import ivhs.hodge as hodge

        calls = []
        real = hodge.check_integral
        monkeypatch.setattr(hodge, "check_integral", lambda c: calls.append(c) or real(c))
        return calls

    def test_verified_flag_skips_recheck(self, integrality_calls):
        # The lift checks integrality once and caches it as ``verified``; the
        # fiber check reads the cache.
        rows = [random_matrix(F, 3, 2, (89, i)).flatten() for i in range(2)]
        e0 = Subspace.from_rows(F, rows, ambient_dimension=6)
        cand = build_transpose_element(e0, WEIGHT3, F)
        assert cand.verified
        assert fiber_forward_check(cand).holds
        assert integrality_calls == [cand]

    def test_set_flag_cannot_hide_non_integral_candidate(self, integrality_calls):
        # x and y are horizontal but x_1 y_0 != y_1 x_0, so pair (0, 1) fails.
        # ``verified`` is computed and cannot be passed in, so no caller can
        # mark this candidate integral and get it past the fiber check.
        shape = HodgeShape(5, (1, 2, 2, 2, 2, 1))
        m = lambda rows: Matrix.from_rows(F, rows)
        x = HorizontalElement(shape, F, [m([[1], [0]]), m([[0, 1], [0, 0]]), Matrix.identity(F, 2)])
        y = HorizontalElement(shape, F, [m([[0], [1]]), m([[1, 0], [0, 0]]), Matrix.zeros(F, 2, 2)])
        with pytest.raises(TypeError):
            IntegralElementCandidate(shape, F, (x, y), verified=True)
        cand = IntegralElementCandidate(shape, F, (x, y))
        with pytest.raises(PreconditionError, match=r"pairs \(\(0, 1\),\) do not commute"):
            fiber_forward_check(cand)
        assert not cand.verified
        assert integrality_calls == [cand]

    def test_weight_two_fiber_rejected(self):
        shape = HodgeShape(2, (1, 2, 1))
        zero = HorizontalElement(shape, F, [Matrix.zeros(F, 2, 1)])
        cand = IntegralElementCandidate(shape, F, (zero,))
        with pytest.raises(PreconditionError):
            fiber_forward_check(cand)
