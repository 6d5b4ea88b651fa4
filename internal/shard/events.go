package shard

import (
	"errors"
	"fmt"
	"sync/atomic"

	"idaax/internal/obs/eventlog"
	"idaax/internal/par"
)

// SetEventLog wires the ops-plane event journal into the router: membership
// changes, rebalance lifecycle and batches, analytics scatter failures and
// shard scan errors are emitted into it from then on. The journal may be nil
// (every eventlog method is nil-safe), so emission points need no guards; the
// federation layer wires the coordinator's journal here when the shard group
// is attached.
func (r *Router) SetEventLog(l *eventlog.Log) {
	r.events.Store(l)
}

// eventLog returns the wired journal (nil when none).
func (r *Router) eventLog() *eventlog.Log {
	return r.events.Load()
}

// emitMember records a fleet membership transition.
func (r *Router) emitMember(typ, member, msg string) {
	r.eventLog().Emit(eventlog.Event{
		Type:     typ,
		Severity: eventlog.Info,
		Shard:    member,
		Message:  msg,
		Payload:  map[string]string{"group": r.name, "epoch": fmt.Sprint(r.Epoch())},
	})
}

// emitRebalance records a rebalance lifecycle event.
func (r *Router) emitRebalance(typ string, sev eventlog.Severity, table, msg string) {
	r.eventLog().Emit(eventlog.Event{
		Type:     typ,
		Severity: sev,
		Shard:    r.name,
		Table:    table,
		Message:  msg,
		Payload: map[string]string{
			"rows_migrated": fmt.Sprint(atomic.LoadInt64(&r.stats.RowsMigrated)),
			"batches":       fmt.Sprint(atomic.LoadInt64(&r.stats.RebalanceBatches)),
		},
	})
}

// emitScatterFailure records a failed analytics scatter partition.
func (r *Router) emitScatterFailure(member, table, proc string, err error) {
	r.eventLog().Emit(eventlog.Event{
		Type:     eventlog.TypeScatterFailed,
		Severity: eventlog.Error,
		Shard:    member,
		Table:    table,
		Message:  fmt.Sprintf("analytics scatter failed on %s: %v", member, err),
		Payload:  withStack(map[string]string{"procedure": proc}, err),
	})
}

// emitScanError records a failed per-shard scan of a gathered statement.
func (r *Router) emitScanError(member, table string, err error) {
	r.eventLog().Emit(eventlog.Event{
		Type:     eventlog.TypeScanError,
		Severity: eventlog.Error,
		Shard:    member,
		Table:    table,
		Message:  fmt.Sprintf("shard scan failed on %s: %v", member, err),
		Payload:  withStack(nil, err),
	})
}

// withStack adds the stack of a worker panic behind err to an event payload.
func withStack(payload map[string]string, err error) map[string]string {
	var pe *par.PanicError
	if errors.As(err, &pe) {
		if payload == nil {
			payload = make(map[string]string, 1)
		}
		payload["stack"] = string(pe.Stack)
	}
	return payload
}
