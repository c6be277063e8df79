package stream

import "rasc.dev/rasc/internal/telemetry"

// Runtime telemetry for the stream engine (metric catalogue rasc_stream_*).
// Counters aggregate over every engine in the process: one engine in a live
// node, all simulated nodes in an experiment.
var (
	telEmitted = telemetry.Default().Counter(
		"rasc_stream_emitted_total",
		"Data units emitted by local sources.")
	telProcessed = telemetry.Default().Counter(
		"rasc_stream_processed_total",
		"Data units whose service execution completed on this node.")
	telForwarded = telemetry.Default().Counter(
		"rasc_stream_forwarded_total",
		"Data units sent downstream after processing.")
	telDelivered = telemetry.Default().Counter(
		"rasc_stream_delivered_total",
		"Data units delivered to local sinks.")
	telEarlyUnits = telemetry.Default().Counter(
		"rasc_stream_early_units_total",
		"Data units that arrived ahead of their component's instantiation, were held and later replayed.")
	telStreamDropped = telemetry.Default().CounterVec(
		"rasc_stream_dropped_total",
		"Data units dropped by the stream runtime, by cause.",
		"cause")
	telDeliveryDelay = telemetry.Default().Histogram(
		"rasc_stream_delivery_delay_seconds",
		"End-to-end delay of units delivered to local sinks.",
		telemetry.DefBuckets)

	// telAppTimeBelow is the paper's availability objective as a counter:
	// cumulative time each origin application's delivered rate sat below
	// MinRateFraction of its live requirement, accrued by the adaptation
	// plane's availability sampler.
	telAppTimeBelow = telemetry.Default().FloatCounterVec(
		"rasc_app_time_below_requested_seconds_total",
		"Seconds an application's delivered rate was below the adaptation threshold.",
		"app")

	// Pre-resolved per-cause drop counters: the hot paths touch these, so
	// the label lookup happens once here. Registering them eagerly also
	// makes every cause visible at 0 on /metrics.
	telDropQueueFull = telStreamDropped.With("queue-full")
	telDropLaxity    = telStreamDropped.With("laxity")
	telDropUplink    = telStreamDropped.With("uplink")
	telDropDownlink  = telStreamDropped.With("downlink")
	telDropStale     = telStreamDropped.With("stale")

	// Batched data plane (metric catalogue rasc_dataplane_*).
	telDataplaneFlush = telemetry.Default().CounterVec(
		"rasc_dataplane_flush_total",
		"Batched data-plane wire messages sent, by flush cause.",
		"cause")
	telFlushFull     = telDataplaneFlush.With("full")
	telFlushDeadline = telDataplaneFlush.With("deadline")
	telFlushStop     = telDataplaneFlush.With("stop")
	telBatchUnits    = telemetry.Default().Histogram(
		"rasc_dataplane_batch_units",
		"Data units per flushed data-plane batch.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
)

// telBatchFlush increments the flush counter for a cause without a label
// lookup on the hot path.
func telBatchFlush(cause string) {
	switch cause {
	case "full":
		telFlushFull.Inc()
	case "deadline":
		telFlushDeadline.Inc()
	default:
		telFlushStop.Inc()
	}
}

// AppTimeBelowSeconds reads the application's accrued below-threshold
// time from the availability counter — the per-priority isolation
// measurement the tenancy experiments assert on.
func AppTimeBelowSeconds(app string) float64 {
	return telAppTimeBelow.With(app).Value()
}
