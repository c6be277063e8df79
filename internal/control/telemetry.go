package control

import "rasc.dev/rasc/internal/telemetry"

// Runtime telemetry for the adaptation control plane (metric catalogue
// rasc_control_*). The controller sits between failure detection and
// re-composition, so its event mix, suppression behavior and fallback
// ratio are the first place to look when reaction time regresses.
var (
	telEvents = telemetry.Default().CounterVec(
		"rasc_control_events_total",
		"Adaptation events published to the controller, by kind.", "kind")
	telActions = telemetry.Default().CounterVec(
		"rasc_control_reallocations_total",
		"Successful reallocations, by mode (incremental delta solve vs full teardown-and-recompose).", "mode")
	telFallbacks = telemetry.Default().Counter(
		"rasc_control_fallbacks_total",
		"Incremental reallocations that were infeasible and fell back to a full recompose.")
	telFailures = telemetry.Default().Counter(
		"rasc_control_failures_total",
		"Reallocation attempts that errored and were re-armed with backoff.")
	telSuppressed = telemetry.Default().CounterVec(
		"rasc_control_suppressed_total",
		"Events absorbed without immediate action, by reason (cooldown, backoff, inflight, limit).", "reason")
	telInflight = telemetry.Default().Gauge(
		"rasc_control_inflight",
		"Reallocations currently in flight across all applications.")
)
