import numpy as np

from triclone.verification import (
    random_density_matrices,
    random_density_matrix,
    random_product_state,
    random_product_states,
)


class TestRandomStacks:
    def test_stacked_draws_equal_sequential_draws(self):
        for stack_of, draw in (
            (random_density_matrices, random_density_matrix),
            (random_product_states, random_product_state),
        ):
            stacked_rng = np.random.default_rng(2024)
            stack = stack_of(stacked_rng, 25)
            single_rng = np.random.default_rng(2024)
            assert stack.shape == (25, 8, 8)
            for member in stack:
                assert np.array_equal(member, draw(single_rng).matrix)
            # Both generators consumed the same draws.
            assert stacked_rng.standard_normal() == single_rng.standard_normal()
