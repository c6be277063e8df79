package core

import "time"

// ComposeStats reports what one composition solve saw, for the decision
// tracing plane: how big the flow instances were, how hard the solver
// worked and whether a feasible graph came out. Callers opt in by setting
// Input.Stats to a zero ComposeStats before Compose/ComposeDelta; the
// composer accumulates into it (MinCost and its delta path fill every
// field; the baseline composers only set Duration and Feasible).
type ComposeStats struct {
	// Substreams counts the substreams actually solved; Copied counts
	// the ones an incremental re-composition carried over verbatim.
	Substreams int
	Copied     int
	// Candidates is the candidate component instances across all solved
	// substreams (after degraded-host filtering).
	Candidates int
	// Nodes and Arcs size the flow graphs across all solved substreams.
	Nodes int
	Arcs  int
	// Iterations totals the augmenting paths the min-cost-flow solver
	// routed.
	Iterations int
	// Flow is the total routed flow in rate units.
	Flow int64
	// Feasible reports that composition produced a graph.
	Feasible bool
	// Duration is the wall-clock time of the Compose call.
	Duration time.Duration
}
