package rasc

import (
	"errors"

	"rasc.dev/rasc/internal/spec"
	"rasc.dev/rasc/internal/stream"
	"rasc.dev/rasc/internal/tenant"
)

// Sentinel errors returned (wrapped, with request-specific detail) by the
// facade. Match them with errors.Is:
//
//	if _, err := sys.Submit(0, req, rasc.ComposerMinCost); errors.Is(err, rasc.ErrNoComposition) {
//		// back off, lower the requested rate, retry elsewhere …
//	}
var (
	// ErrUnknownComposer reports a composer name outside Composers().
	// Returned by ParseComposer and by Submit when handed an unchecked
	// Composer value.
	ErrUnknownComposer = errors.New("rasc: unknown composer")

	// ErrNoComposition reports that the composer ran but found no feasible
	// placement: no set of service instances can carry the requested rates
	// within the deployment's current bandwidth (and, for the cpu
	// composers, CPU) availability. The wrapped chain keeps the underlying
	// solver error, so more specific sentinels still match through it.
	ErrNoComposition = errors.New("rasc: no feasible composition")

	// ErrUnknownService reports a request naming a service that is not in
	// the deployment's catalog — composition is not attempted.
	ErrUnknownService = errors.New("rasc: unknown service")

	// ErrRequestIDTooLong reports a request whose ID is longer than 255
	// bytes, the most the data-unit wire format can frame — composition
	// is not attempted. Re-exported from internal/spec.
	ErrRequestIDTooLong = spec.ErrRequestIDTooLong

	// ErrOriginOutOfRange reports a Submit from a node index outside the
	// deployment — composition is not attempted.
	ErrOriginOutOfRange = errors.New("rasc: origin outside the deployment")

	// ErrSubmitTimeout reports a submission that had not completed after
	// 60 s of virtual time. Streams it started may keep running.
	ErrSubmitTimeout = errors.New("rasc: submission did not complete")
)

// Submit-path sentinels, re-exported from internal/stream; each wraps its
// cause (a DHT timeout, the failing host's answer), so errors.Is also
// matches deeper sentinels through them.
var (
	// ErrNoDirectory reports a submission from a node that was built
	// without a discovery directory (a pure worker).
	ErrNoDirectory = stream.ErrNoDirectory

	// ErrDiscovery reports that looking up the hosts of a requested
	// service failed; nothing was composed or instantiated.
	ErrDiscovery = stream.ErrDiscovery

	// ErrInstantiation reports that a host refused or did not acknowledge
	// a composed component. The partial instantiation was rolled back.
	ErrInstantiation = stream.ErrInstantiation

	// ErrSubmitCancelled reports a submission that a teardown of its
	// request (or a cancelled SubmitContext) ended before it completed.
	// Everything it had started was rolled back.
	ErrSubmitCancelled = stream.ErrSubmitCancelled
)

// Admission sentinels of deployments built WithTenancy, re-exported from
// internal/tenant so callers branch with errors.Is on the facade alone.
var (
	// ErrAdmissionRejected reports that the admission gate turned the
	// request away: admitting it would push a running tenant of equal or
	// higher priority below its guaranteed share, and the admission queue
	// is full. No running application was disturbed.
	ErrAdmissionRejected = tenant.ErrAdmissionRejected

	// ErrAdmissionQueued reports that the request was parked in the
	// admission queue; it is submitted automatically when capacity frees
	// up. Observe it through System.Tenants.
	ErrAdmissionQueued = tenant.ErrAdmissionQueued
)
