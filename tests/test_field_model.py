"""Field parameters, digit-string centers, tail counts and the points pi**n."""

import pytest

from padiclab import Center, FieldParams, count_g, field_model, pi_power

P211 = FieldParams(2, 1, 1)
P311 = FieldParams(3, 1, 1)
P221 = FieldParams(2, 2, 1)
P212 = FieldParams(2, 1, 2)
ALL_PARAMS = [P211, P311, P221, P212]


class TestFieldParams:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            FieldParams(6, 1, 1)
        with pytest.raises(ValueError):
            FieldParams(1, 1, 1)
        with pytest.raises(ValueError):
            FieldParams(2, 0, 1)
        with pytest.raises(ValueError):
            FieldParams(2, 1, 0)

    def test_derived_quantities(self):
        assert P211.q_res == 2
        assert P212.q_res == 4
        assert P211.ef == 1
        assert P221.ef == 2
        assert P211.q == 0.25
        assert P211.Q == 4.0
        assert P221.q == 0.5
        assert P311.Q == 9.0

    def test_scale_exactness(self):
        assert P211.scale_float(-3) == 0.125

    @pytest.mark.parametrize(
        "args, message",
        [
            ((6, 1, 1), "p must be prime, got 6"),
            ((1, 1, 1), "p must be prime, got 1"),
            ((2, 0, 1), "e must be a positive integer, got 0"),
            ((2, 1, -1), "f must be a positive integer, got -1"),
            # A strong pseudoprime to every prime base up to 37.
            ((318665857834031151167461, 1, 1), "p must be prime, got 318665857834031151167461"),
            # The least strong pseudoprime to every prime base up to 41.
            ((3317044064679887385961981, 1, 1),
             "p must be below 3317044064679887385961981, got 3317044064679887385961981"),
            ((2, 10**17, 1), "e must leave p[*][*][(]2/e[)] above 1 in floats, got 10{17}"),
            ((2, 10**400, 1), "e must leave p[*][*][(]2/e[)] above 1 in floats, got 10{400}"),
        ],
    )
    def test_validation_messages(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FieldParams(*args)

    def test_primality_matches_trial_division(self):
        sieve = [True] * 100_000
        sieve[0] = sieve[1] = False
        for n in range(2, 317):
            if sieve[n]:
                sieve[n * n::n] = [False] * len(range(n * n, 100_000, n))
        assert [field_model._is_prime(n) for n in range(100_000)] == sieve
        for p in (10000000000000061, 1000000000000000003, 2**31 - 1, 2**61 - 1):
            assert FieldParams(p, 1, 1).p == p
        assert not field_model._is_prime(3215031751)  # strong pseudoprime to 2, 3, 5, 7
        assert not field_model._is_prime((2**61 - 1) * (2**31 - 1))

    def test_largest_e_with_a_float_model(self):
        """At e = 10**16, ``2**(2/e)`` still rounds above 1."""
        params = FieldParams(2, 10**16, 1)
        assert params.q < 1.0 < params.Q

    def test_value_semantics(self):
        """Equal fields give equal, equally hashed values (the root cache keys
        on them), keyword and positional construction alike."""
        same = FieldParams(p=2, e=1, f=1)
        assert same == P211 and same is not P211
        assert hash(same) == hash(P211)
        assert {P211: "cached"}[same] == "cached"
        assert P211 != P311 and P211 != P221 and P211 != P212
        assert (same.p, same.e, same.f) == (2, 1, 1)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            P211.p = 3
        with pytest.raises(AttributeError):
            P211.extra = 1
        assert P211.p == 2

    def test_repr(self):
        assert repr(P212) == "FieldParams(p=2, e=1, f=2)"

    def test_replace_validates(self):
        assert P211._replace(e=2) == P221 and type(P211._replace(e=2)) is FieldParams
        with pytest.raises(ValueError, match="^p must be prime, got 4$"):
            P211._replace(p=4)


class TestCenter:
    def test_digit_validation(self):
        assert Center(P212, -1, (0, 3)).digits == (0, 3)
        with pytest.raises(ValueError):
            Center(P211, 0, (0, 2))
        with pytest.raises(ValueError):
            Center(P311, 0, (-1,))

    @pytest.mark.parametrize(
        "params, digits, message",
        [(P211, (0, 2), "digit 2 outside alphabet 0..1"),
         (P311, (-1,), "digit -1 outside alphabet 0..2"),
         (P212, (3, 4), "digit 4 outside alphabet 0..3")],
    )
    def test_validation_messages(self, params, digits, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Center(params, 0, digits)

    def test_value_semantics(self):
        c = Center(P212, -1, (0, 3))
        same = Center(params=FieldParams(2, 1, 2), start=-1, digits=(0, 3))
        assert c == same and hash(c) == hash(same)
        assert c != Center(P212, 0, (0, 3)) and c != Center(P212, -1, (0, 2))
        assert c != Center(P211, -1, (0, 1)) and Center(P211, 0, ()) != Center(P311, 0, ())

    def test_immutable(self):
        c = Center(P211, 0, (1, 0))
        with pytest.raises(AttributeError):
            c.start = 1
        with pytest.raises(AttributeError):
            c.digits = (0,)
        assert (c.start, c.digits) == (0, (1, 0))

    def test_repr(self):
        assert repr(Center(P212, -1, (0, 3))) == (
            "Center(params=FieldParams(p=2, e=1, f=2), start=-1, digits=(0, 3))"
        )

    def test_replace_validates(self):
        c = Center(P212, -1, (0, 3))
        assert c._replace(start=0) == Center(P212, 0, (0, 3))
        with pytest.raises(ValueError, match="^digit 3 outside alphabet 0..1$"):
            c._replace(params=P211)


class TestCountG:
    def test_frozen_values(self):
        assert count_g(P211, 0) == 1
        assert count_g(P211, 1) == 1
        assert count_g(P211, 2) == 2
        assert count_g(P311, 1) == 2
        assert count_g(P212, 1) == 3
        assert count_g(P212, 2) == 12

    @pytest.mark.parametrize("params", ALL_PARAMS)
    @pytest.mark.parametrize("M", [0, 1, 2, 3, 4])
    def test_total_count_is_ball_count(self, params, M):
        # Tail classes of length <= M partition the depth-M balls.
        assert sum(count_g(params, m) for m in range(M + 1)) == params.q_res**M

    def test_negative_tail_rejected(self):
        with pytest.raises(ValueError):
            count_g(P211, -1)


class TestPiPower:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_norm_of_pi_power(self, params, n):
        c = pi_power(params, n, n + 1)
        # |pi**n| = p**(-n/e): the first nonzero digit sits at index n.
        assert next(c.start + i for i, d in enumerate(c.digits) if d != 0) == n

    @pytest.mark.parametrize(
        "n, depth, start", [(2, 2, 0), (-1, 3, 0), (0, 3, 1)], ids=["at-depth", "negative", "before-start"]
    )
    def test_index_outside_digits_rejected(self, n, depth, start):
        with pytest.raises(ValueError):
            pi_power(P211, n, depth, start)

    def test_digit_layout(self):
        c = pi_power(P211, 2, 4)
        assert c.digits == (0, 0, 1, 0)
        assert c.start == 0
