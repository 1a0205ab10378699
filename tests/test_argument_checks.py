"""The argument checks of the library functions that no other test reaches:
what a caller sees for an argument out of range."""
import re

import pytest

from krawtchouk import combinatorics, identities, matrices, zeon


CASES = [
    (identities.sweep_sum_squares_general, (0, 1, 0), "bad parameters N=0 j=0"),
    (identities.sweep_partial_sum_plain, (2, 3), "bad parameters N=2 j=3"),
    (identities.column_sum_of_squares, (2, 3), "bad parameters N=2 j=3"),
    (identities.row_sum_of_squares, (2, -1), "bad parameters N=2 i=-1"),
    (identities.central_row_value, (-1, 0), "bad parameters N=-1 j=0"),
    (identities.column_square_central_link, (1, 4), "bad parameters m=1 j=4"),
    (identities.super_catalan_link, (2, 3), "bad parameters n=2 k=3"),
    (matrices.build_matrix, (-1, 1), "N must be nonnegative, got -1"),
    (matrices.verify_recurrence_j, (0, 1), "recurrence check requires N >= 1, got 0"),
    (zeon.ZeonMatrix, (-1,), "n must be nonnegative, got -1"),
    (zeon.op_T, (0,), "n must be >= 1, got 0"),
    (zeon.op_Tstar, (0,), "n must be >= 1, got 0"),
    (combinatorics.super_catalan, (-1, 0), "super_catalan requires n >= 0, got n=-1"),
]


@pytest.mark.parametrize("call,args,message", CASES, ids=[call.__name__ for call, *_ in CASES])
def test_an_argument_out_of_range_is_refused_with_a_value_error(call, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        call(*args)
    assert type(exc.value) is ValueError
