package ctrl

// Sentinel errors for the control plane's failure modes. Every error path
// that used to return an opaque fmt.Errorf now wraps one of these, so
// callers branch with errors.Is instead of substring matching: the netsim
// harnesses distinguish "the reload guard is busy" (retry next boundary)
// from "the deadline expired" (walk the watchdog ladder) from "the journal
// found a torn operation" (run recovery) without parsing messages.

import "errors"

var (
	// ErrReloadInFlight marks an operation rejected because the data-plane
	// reload guard is held (a hitless update is mid-rewrite, or a caller
	// opened BeginReload).
	ErrReloadInFlight = errors.New("data-plane reload in flight")
	// ErrReloadTimeout marks a supervised reload or commit that blew its
	// watchdog deadline (a reload stall, or a crashed updater).
	ErrReloadTimeout = errors.New("reload deadline expired")
	// ErrOpInFlight marks a journal Begin while another journaled operation
	// is still open — the single-writer mirror of ErrReloadInFlight.
	ErrOpInFlight = errors.New("journaled operation already in flight")
	// ErrUpdateFinished marks a Commit or journal mutation on an operation
	// that already committed or aborted.
	ErrUpdateFinished = errors.New("operation already finished")
	// ErrUpdateStale marks a re-arm of an aborted hitless update whose
	// network's table, or the image its writes were counted against, changed
	// since it was prepared: it must be prepared afresh.
	ErrUpdateStale = errors.New("update prepared against an older table")
	// ErrMigrationTimeout marks a live migration whose bounded retry budget
	// or deadline ran out; the victim network enters degraded mode instead
	// of retrying forever.
	ErrMigrationTimeout = errors.New("migration retry budget exhausted")
	// ErrNoCapacity marks a placement or failover decision that found no
	// surviving device with engine slots and power headroom for the network.
	ErrNoCapacity = errors.New("no device capacity for network")
	// ErrDeviceLost marks an operation aimed at a device that crashed (or
	// crashed mid-operation): the work is void and must be re-planned
	// against the surviving fleet.
	ErrDeviceLost = errors.New("target device lost")
)
