package control

import "rasc.dev/rasc/internal/overlay"

// EventKind enumerates the typed adaptation triggers feeding the
// controller.
type EventKind int

const (
	// RateBelowThreshold reports that an application substream's delivered
	// rate fell below the configured fraction of its requirement (the
	// origin's periodic sink check).
	RateBelowThreshold EventKind = iota
	// MemberDead reports that the gossip failure detector declared a host
	// dead.
	MemberDead
	// BreakerOpen reports that the transport circuit breaker opened for a
	// peer after consecutive send failures.
	BreakerOpen
	// UpgradePossible reports that a healthy application admitted below
	// its desired rate might now be upgradable (capacity may have freed).
	UpgradePossible
	// FairShareChanged reports that the tenancy gate recomputed the
	// application's fair-share rate cap (a tenant joined or left, or
	// cluster capacity changed); the application must be recomposed to
	// its new cap.
	FairShareChanged
	// BoundaryLinkSaturated reports that a federated hand-off could not
	// reserve inter-cluster boundary capacity: the application should be
	// recomposed so its cross-cluster substreams find another route (or
	// shrink to what the boundary can carry).
	BoundaryLinkSaturated
	// RemoteCandidateLost reports that a remote cluster hosting part of a
	// federated application stopped answering border summaries: its
	// fragments must be re-placed before the silence becomes loss.
	RemoteCandidateLost
)

// String returns the snake_case label used in rasc_control_* telemetry.
func (k EventKind) String() string {
	switch k {
	case RateBelowThreshold:
		return "rate_below_threshold"
	case MemberDead:
		return "member_dead"
	case BreakerOpen:
		return "breaker_open"
	case UpgradePossible:
		return "upgrade_possible"
	case FairShareChanged:
		return "fair_share_changed"
	case BoundaryLinkSaturated:
		return "boundary_link_saturated"
	case RemoteCandidateLost:
		return "remote_candidate_lost"
	}
	return "unknown"
}

// Event is one adaptation trigger published to the controller.
type Event struct {
	Kind EventKind
	// App is the affected application (request ID). Host-scoped events
	// (MemberDead, BreakerOpen) leave it empty; the
	// controller expands them to every application placed on Host.
	App string
	// Host is the culprit host when one is known; the zero ID means
	// "unknown", which forces a full recompose instead of an incremental
	// shift (there is nothing to shift away from).
	Host overlay.ID
	// Substreams lists the affected substream indexes, when known. nil
	// re-solves every substream.
	Substreams []int
}
