"""Virtual closure, ribbon-surface genus, and height lower bounds."""

from __future__ import annotations

from dataclasses import dataclass

from .codes import ComponentCode, KnotoidCode, LOOP, OPEN
from .errors import CodeSyntaxError, ParityError, ShapeError
from .affine import affine_index
from .arrow import arrow_polynomial
from .smoothing import DEFAULT_STATE_LIMIT, compiled_form


def virtual_closure(code: KnotoidCode) -> KnotoidCode:
    """Join head to tail of the single open component, keeping the code.

    The connecting arc meets the diagram in virtual crossings only, so the
    passage sequence is unchanged; the open component simply becomes a loop.
    """
    opens = [c for c in code.components if c.kind == OPEN]
    if len(opens) != 1:
        raise ShapeError("virtual closure needs exactly one open component")
    comps = tuple(
        ComponentCode(LOOP, c.passages) if c.kind == OPEN else c
        for c in code.components
    )
    return KnotoidCode(comps, code.meta)


def carter_genus(code: KnotoidCode) -> int:
    """Genus of the closed ribbon surface of the diagram.

    Builds the ribbon graph (4-valent vertices at crossings with the
    sign-determined rotation, 1-valent vertices at the endpoints), counts
    boundary cycles delta by the rotation-system face walk, and returns
    1 + ((n - 1) - delta) / 2.
    """
    if not code.is_standard_knotoid():
        raise ShapeError("ribbon genus needs one open component and no loops")
    compiled = compiled_form(code)
    n = compiled.n
    P = compiled.P
    tail, head = -1, -2

    # Each end to the far end of its arc; without passages the stubs face.
    alpha = {e: compiled.arc_end(e) for e in range(2 * P)}
    alpha[tail], alpha[head] = compiled.first_target[0], compiled.head_source[0]

    sigma = {tail: tail, head: head}
    for k in range(n):
        a, b, c, d = compiled.rotation(k)
        sigma.update({a: b, b: c, c: d, d: a})

    seen: set[int] = set()
    delta = 0
    for x in alpha:  # one boundary cycle per end not yet walked
        delta += x not in seen
        while x not in seen:
            seen.add(x)
            x = sigma[alpha[x]]
    if ((n - 1) - delta) % 2:
        raise ParityError("boundary count has the wrong parity")
    return 1 + ((n - 1) - delta) // 2


@dataclass(frozen=True)
class HeightBound:
    affine_bound: int
    lambda_bound: int
    lower: int
    declared_upper: int | None
    formal: bool  # True when the input is not declared classical

    @classmethod
    def of(cls, code: KnotoidCode, affine, arrow) -> HeightBound:
        """The bounds of a single-leg code from its affine index and arrow polynomial."""
        affine_bound = max(affine.max_degree(), 0)
        lambda_bound = arrow.lambda_degree()
        declared = declared_height_interval(code)
        return cls(
            affine_bound=affine_bound,
            lambda_bound=lambda_bound,
            lower=max(affine_bound, lambda_bound),
            declared_upper=declared[1] if declared else None,
            formal=code.meta.get("declared_classical") != "true",
        )

    def to_json(self):
        return {
            "affine_bound": self.affine_bound,
            "lambda_bound": self.lambda_bound,
            "lower": self.lower,
            "declared_upper": self.declared_upper,
            "formal": self.formal,
        }


def declared_height_interval(code: KnotoidCode) -> tuple[int, int] | None:
    """Parse the ``declared_height`` metadata: either ``n`` or ``lo..hi``."""
    raw = code.meta.get("declared_height")
    if raw is None:
        return None
    text = str(raw)
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    try:
        return int(lo), int(hi)
    except ValueError:
        raise CodeSyntaxError(f"malformed declared_height {text!r}") from None


def height_bounds(code: KnotoidCode, state_limit: int = DEFAULT_STATE_LIMIT) -> HeightBound:
    """Lower bounds for the height from the affine index and arrow degrees."""
    check_height_shape(code)
    return HeightBound.of(code, affine_index(code), arrow_polynomial(code, state_limit))


def check_height_shape(code: KnotoidCode) -> None:
    """Raise ShapeError unless ``height_bounds`` is defined for the code."""
    if not code.is_standard_knotoid():
        raise ShapeError("height bounds need a single open component")
