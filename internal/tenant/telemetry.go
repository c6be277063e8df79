package tenant

import "rasc.dev/rasc/internal/telemetry"

// Runtime telemetry for the tenancy layer (metric catalogue rasc_tenant_*).
// The gate sits in front of every submission, so its decision mix is the
// first place to look when applications are unexpectedly parked or capped.
var (
	telAdmissions = telemetry.Default().CounterVec(
		"rasc_tenant_admissions_total",
		"Admission gate decisions, by outcome (admitted, queued, rejected, promoted).", "decision")
	telPreemptions = telemetry.Default().Counter(
		"rasc_tenant_preemptions_total",
		"Running tenants preempted into the admission queue by higher-priority contention.")
	telCapChanges = telemetry.Default().Counter(
		"rasc_tenant_cap_changes_total",
		"Fair-share rate-cap updates pushed to running tenants after a fairness recompute.")
	telRecomputes = telemetry.Default().Counter(
		"rasc_tenant_fair_share_recomputes_total",
		"Water-filling fairness recomputations (admission, departure, capacity change).")
	telActive = telemetry.Default().GaugeVec(
		"rasc_tenant_active",
		"Admitted tenants currently holding a fair-share allocation, by priority class.", "priority")
	telQueued = telemetry.Default().Gauge(
		"rasc_tenant_queued",
		"Tenants waiting in the admission queue.")
	telCapacity = telemetry.Default().Gauge(
		"rasc_tenant_capacity_bps",
		"Aggregate cluster capacity the admission gate budgets, in bits/sec.")
	telDemand = telemetry.Default().Gauge(
		"rasc_tenant_demand_bps",
		"Aggregate requested rate of admitted tenants, in bits/sec.")
	telRecomputeLatency = telemetry.Default().Histogram(
		"rasc_tenant_recompute_duration_seconds",
		"Wall-clock latency of one fairness recompute (water level plus notification fan-out).", nil)
)
