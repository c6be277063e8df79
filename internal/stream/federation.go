package stream

import (
	"sort"

	"rasc.dev/rasc/internal/control"
	"rasc.dev/rasc/internal/core"
	"rasc.dev/rasc/internal/federation"
)

// SetFederation joins the engine into a federated deployment. Composition
// input is scoped to the coordinator's cluster from here on, substreams
// the local cluster cannot place are handed to the best-answering remote
// cluster instead of failing, and the engine serves the remote side of
// hand-off handshakes by composing fragments against its own cluster's
// state. Boundary saturation feeds the adaptation control plane.
func (e *Engine) SetFederation(coord *federation.Coordinator) {
	e.fed = coord
	e.cluster = coord.Cluster()
	coord.SetComposeFunc(e.composeForFederation)
	coord.OnBoundarySaturated(func(app, link string) {
		e.ensureController().Publish(control.Event{Kind: control.BoundaryLinkSaturated, App: app})
	})
}

// Federation returns the engine's coordinator (nil in flat deployments).
func (e *Engine) Federation() *federation.Coordinator { return e.fed }

// Cluster returns the engine's cluster name ("" in flat deployments).
func (e *Engine) Cluster() string { return e.cluster }

// OnRemoteClusterLost reacts to a border summary passing its TTL: every
// origin application with a placement in the silent cluster publishes
// RemoteCandidateLost, so the controller re-plans it from the clusters
// that still answer.
func (e *Engine) OnRemoteClusterLost(cluster string) {
	if cluster == "" || cluster == e.cluster {
		return
	}
	ids := make([]string, 0, len(e.origins))
	for id := range e.origins {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, app := range ids {
		for _, p := range e.origins[app].graph.Placements {
			if p.Host.Cluster == cluster {
				e.ensureController().Publish(control.Event{Kind: control.RemoteCandidateLost, App: app})
				break
			}
		}
	}
}

// composeForFederation is the remote side of a hand-off handshake: run
// the origin's requested composer over this cluster's own gossip-fresh
// state, between the origin's endpoints, and return the fragment. The
// substream's components are instantiated later by the origin, exactly
// like locally composed placements.
func (e *Engine) composeForFederation(h federation.HandoffRequest, done func(*core.ExecutionGraph, error)) {
	composer, err := core.ByName(h.Composer)
	if err != nil {
		done(nil, err)
		return
	}
	e.gatherInput(h.Request, e.adaptConfig().Timeout, func(in core.Input, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		// The fragment spans the origin's endpoints, not this node's:
		// flow conservation on the stitched graph needs the real
		// source and destination on both sides of the boundary.
		in.Source = h.Source
		in.Dest = h.Dest
		in.SourceReport = h.SourceReport
		in.DestReport = h.DestReport
		done(composer.Compose(in))
	})
}
