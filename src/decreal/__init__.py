"""decreal: real numbers as infinite decimal digit streams.

Reals are taken at face value -- signed streams of decimal digits with no
nine-tails and no minus zero -- and all structure is built directly on the
digits: comparison with explicit separation witnesses, suprema by digitwise
filtering, arithmetic that computes each output digit from finitely many
input digits once a hint settles the one undecidable question (does the
result terminate?), generating sequences with explicit moduli, p-adic
streams where every operation is local, encodings of streams onto one-way
machine tapes, and the classification of the shift maps x -> d + x and
x -> d * x by letter-level computability.
"""

from .errors import (
    DecrealError,
    DenominatorDivisibleByP,
    EmptySetError,
    HintMismatch,
    InvalidLiteral,
    InvariantViolation,
    MalformedHint,
    MalformedWord,
    ModulusTooLarge,
    NonzeroWitnessInvalid,
    NotPrime,
    OracleUnavailable,
    ParseError,
    PrimeMismatch,
    ZeroShift,
)
from .rational import (
    DecFrac,
    approx_recip,
    format_decfrac,
    format_rat,
    parse_decfrac,
    parse_rat,
    pow10,
    ten_smooth,
)
from .decimals import (
    TERM_ZERO,
    Comparison,
    Decimal,
    FalseDecimal,
    NineEscapeWitness,
    SeparationWitness,
    TermDecimal,
    ValidationReport,
    Verdict,
    bar,
    bar_inv,
    check_separation,
    compare,
    compare_extended,
    format_decimal,
    inf_finite,
    interval_digit,
    negate,
    parse_decimal,
    r_inv,
    r_map,
    render_digits,
    searched_nine_escape,
    sup_finite,
    truncate,
    validate_prefix,
)
from .words import (
    EPS,
    XI,
    InfWord,
    ReadTrace,
    bin_lsb_decode,
    bin_lsb_encode,
    convert_xr_xs,
    convert_xs_xr,
    decode_xr,
    decode_xr_prefix,
    decode_xs,
    encode_xr,
    encode_xs,
    render_tape,
    traced,
    traced_decimal,
)
from .genseq import (
    CauchySeqQD,
    NonzeroWitness,
    from_decimal,
    limit_digits,
    monotone_subsequence,
    mutually_close_probe,
    seq_add,
    seq_bound,
    seq_mul,
    seq_neg,
    seq_recip,
)
from .padic import (
    PAdic,
    padic_add,
    padic_decode,
    padic_encode,
    padic_from_rational,
    padic_mul,
    padic_neg,
    traced_padic,
)
from .weak import (
    Hint,
    add_digit_rule,
    compute_hint,
    hint_decode,
    hint_encode,
    mul_certified_digit,
    mul_stabilized_digit,
    result_letter,
    weak_add,
    weak_mul,
)
from .shifts import (
    ContinuityReport,
    GraphType,
    ShiftClass,
    add_shift_conjugate,
    classify_add_shift,
    classify_mul_shift,
    continuity_probe,
    graph_type,
    involution_F,
    make_add_shift,
    make_mul_shift,
)

__version__ = "0.1.0"
