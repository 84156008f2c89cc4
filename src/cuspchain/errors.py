"""Exception types shared across the package, and the postcondition check."""


class CuspChainError(Exception):
    """Base class for every error raised by this library."""


class InputFormatError(CuspChainError):
    """A JSON document or file does not match the expected schema."""


class MixedDiscriminants(CuspChainError):
    """Arithmetic between elements of different imaginary quadratic fields."""


class FormKindMismatch(CuspChainError):
    """An operation received a form space of the wrong kind."""


class AlternatingHasNoSignature(CuspChainError):
    """Signatures are defined for symmetric and hermitian forms only."""


class NotIsotropic(CuspChainError):
    """A subspace that must be isotropic is not."""


class VectorNotIsotropic(CuspChainError):
    """A vector that must be isotropic is not."""


class VectorInRadical(CuspChainError):
    """A vector pairs to zero with the whole space."""


class NotNested(CuspChainError):
    """A subspace chain I <= S <= I-perp is violated."""


class DimensionTooSmall(CuspChainError):
    """The ambient space is too small for the requested construction."""


class DimensionMismatch(CuspChainError):
    """Two objects have incompatible dimensions."""


class SignatureMismatch(CuspChainError):
    """The space does not have the signature required by the operation."""


class SignatureUnsupported(CuspChainError):
    """Hermitian chain construction requires signature (p, q) with p <= q."""


class SearchExhausted(CuspChainError):
    """Bounded vector enumeration hit its height cap without a hit."""


class PreconditionFailed(CuspChainError):
    """A stated operation precondition does not hold for the inputs."""


class PostconditionFailed(CuspChainError):
    """A construction produced output that fails its own exact check."""


class SubspacesIntersect(CuspChainError):
    """Two subspaces required to intersect trivially do not."""


class ExcludedCase(CuspChainError):
    """The (n, k) = (2, 1) orthogonal case, excluded from chain building."""


class NotDeterminantOne(CuspChainError):
    """A 2x2 matrix expected in SL2 has determinant != 1."""


class NotAnIsometry(CuspChainError):
    """A matrix does not preserve the ambient form."""


class AmbientMismatch(CuspChainError):
    """Two lattices do not live in the same ambient form space."""


class NotContained(CuspChainError):
    """A lattice expected inside another is not contained in it."""


def _ensure(holds: bool, what: str) -> None:
    """Raise PostconditionFailed unless ``holds``; kept under ``python -O``."""
    if not holds:
        raise PostconditionFailed(what)
