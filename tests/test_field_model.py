"""Field parameters, digit-string centers, tail counts and the points pi**n."""

import pytest

from padiclab import Center, FieldParams, count_g, pi_power

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


class TestCenter:
    def test_digit_validation(self):
        assert Center(P212, -1, (0, 3)).digits == (0, 3)
        with pytest.raises(ValueError):
            Center(P211, 0, (0, 2))
        with pytest.raises(ValueError):
            Center(P311, 0, (-1,))


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
