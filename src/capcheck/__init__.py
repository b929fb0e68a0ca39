"""Fast completeness checking for caps in PG(r, 2^k).

Points are packed integers in a base-2^k positional encoding chosen so
that point addition is a single XOR; coverage of the whole space is a
bit per raw code, so deciding whether a cap is complete never
normalizes a point inside the hot loop.
"""

from .cap import (
    Cap,
    CapViolation,
    greedy_extend,
    parse_cap,
    random_cap,
    validate_cap,
    write_cap,
)
from .completeness import (
    CompletenessReport,
    check_fast,
    check_naive,
    check_oracle,
    check_split,
    reports_agree,
)
from .coverage import CoverageMap
from .errors import (
    BadCoordinateError,
    CapcheckError,
    CapFormatError,
    DuplicatePointError,
    GeometryMismatchError,
    GeometryTooLargeError,
    InvalidCapError,
    InvariantError,
    OutOfRangeError,
    ReduciblePolynomialError,
    SamePointError,
    UnsupportedFieldError,
    WrongArityError,
    ZeroInverseError,
    ZeroScalarError,
    ZeroVectorError,
)
from .field import DEFAULT_MODULI, FieldTable, build_field, is_irreducible
from .geometry import (
    Geometry,
    decode_point,
    encode_point,
    enumerate_points,
    index_of_point,
    is_normalized,
    leading_coefficient,
    line_points,
    normalize,
    point_by_index,
    scalar_mul_point,
)
from .quantum import (
    CapMatrix,
    QuantumVerdict,
    check_hyperplane_parity,
    check_self_orthogonal,
    check_weights_even,
    matrix_rank,
    verify_quantum_cap,
)

__version__ = "0.1.0"

__all__ = [
    "BadCoordinateError",
    "Cap",
    "CapFormatError",
    "CapMatrix",
    "CapViolation",
    "CapcheckError",
    "CompletenessReport",
    "CoverageMap",
    "DEFAULT_MODULI",
    "DuplicatePointError",
    "FieldTable",
    "Geometry",
    "GeometryMismatchError",
    "GeometryTooLargeError",
    "InvalidCapError",
    "InvariantError",
    "OutOfRangeError",
    "QuantumVerdict",
    "ReduciblePolynomialError",
    "SamePointError",
    "UnsupportedFieldError",
    "WrongArityError",
    "ZeroInverseError",
    "ZeroScalarError",
    "ZeroVectorError",
    "build_field",
    "check_fast",
    "check_hyperplane_parity",
    "check_naive",
    "check_oracle",
    "check_self_orthogonal",
    "check_split",
    "check_weights_even",
    "decode_point",
    "encode_point",
    "enumerate_points",
    "greedy_extend",
    "index_of_point",
    "is_irreducible",
    "is_normalized",
    "leading_coefficient",
    "line_points",
    "matrix_rank",
    "normalize",
    "parse_cap",
    "point_by_index",
    "random_cap",
    "reports_agree",
    "scalar_mul_point",
    "validate_cap",
    "verify_quantum_cap",
    "write_cap",
]
