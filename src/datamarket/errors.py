"""Exception hierarchy for the marketplace simulator."""


class MarketError(Exception):
    """Base class for all simulator errors."""


# --- ledger ---

class DuplicateId(MarketError):
    pass


class UnknownSeller(MarketError):
    pass


class UnknownNode(MarketError):
    pass


class NotBuyer(MarketError):
    pass


class NoActiveAuction(MarketError):
    pass


class InsufficientBalance(MarketError):
    pass


class AuctionStillOpen(MarketError):
    pass


class NoSuchAuction(MarketError):
    pass


class NotInExecutionSet(MarketError):
    pass


class DoubleCommit(MarketError):
    pass


class CommitTimeout(MarketError):
    pass


# --- consensus ---

class SizeExceedsPopulation(MarketError):
    pass


class DegenerateParams(MarketError):
    pass


class NoConsensus(MarketError):
    pass


# --- federated core ---

class ZeroProbabilitySampled(MarketError):
    pass


class NumericalFailure(MarketError):
    pass


class EmptyCandidates(MarketError):
    pass


class DimensionMismatch(MarketError):
    pass


# --- training / data ---

class EmptyShard(MarketError):
    pass


class EmptyEvalSet(MarketError):
    pass


class NonFiniteState(MarketError):
    pass


class BadMagic(MarketError):
    pass


class TruncatedFile(MarketError):
    pass


# --- economics ---

class EmptyContributors(MarketError):
    pass
