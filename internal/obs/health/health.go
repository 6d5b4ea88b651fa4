// Package health is the fleet health model of the operations plane:
// per-component health checks (each shard backend, the replication apply
// loop, the rebalancer, planner statistics freshness) aggregated into one
// fleet verdict, plus a background watchdog (watchdog.go) that evaluates
// temporal rules — conditions only visible across time, like a rebalance
// making no progress — and flips components to degraded or unhealthy.
//
// The package is generic: components are registered as closures by the
// federation layer, so health itself (like the rest of internal/obs) depends
// only on the standard library.
package health

import (
	"sort"
	"strings"
	"sync"
)

// Status is a component's (or the fleet's) health verdict. Order matters:
// higher is worse, and the aggregate verdict is the worst component.
type Status int

const (
	// Healthy: the component operates normally.
	Healthy Status = iota
	// Degraded: the component works but an operator should look (CDC lag over
	// threshold, stale planner statistics, elevated slow-query rate).
	Degraded
	// Unhealthy: the component does not make progress (stalled rebalance,
	// persistent scan errors). An unhealthy component fails /healthz.
	Unhealthy
)

// String renders the status in the form the HTTP and SQL surfaces report.
func (s Status) String() string {
	switch s {
	case Degraded:
		return "DEGRADED"
	case Unhealthy:
		return "UNHEALTHY"
	default:
		return "HEALTHY"
	}
}

// MarshalJSON renders the status as its string form.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the string form produced by MarshalJSON.
func (s *Status) UnmarshalJSON(b []byte) error {
	switch strings.ToUpper(strings.Trim(string(b), `"`)) {
	case "DEGRADED":
		*s = Degraded
	case "UNHEALTHY":
		*s = Unhealthy
	default:
		*s = Healthy
	}
	return nil
}

// Worse returns the worse of two statuses.
func Worse(a, b Status) Status {
	if b > a {
		return b
	}
	return a
}

// Probe is one check's result.
type Probe struct {
	Status Status `json:"status"`
	// Detail is the human-readable reason ("apply lag 12s over threshold 5s").
	Detail string `json:"detail,omitempty"`
}

// Ok builds a healthy probe.
func Ok(detail string) Probe { return Probe{Status: Healthy, Detail: detail} }

// Degrade builds a degraded probe.
func Degrade(detail string) Probe { return Probe{Status: Degraded, Detail: detail} }

// Fail builds an unhealthy probe.
func Fail(detail string) Probe { return Probe{Status: Unhealthy, Detail: detail} }

// CheckFunc evaluates one component's instantaneous health. Checks run on
// every Report call (a /healthz request, a watchdog tick), so they must be
// cheap and must not block.
type CheckFunc func() Probe

// ComponentHealth is one component's line in a report.
type ComponentHealth struct {
	Name   string `json:"name"`
	Status Status `json:"status"`
	Detail string `json:"detail,omitempty"`
	// Watchdog marks a verdict imposed by a watchdog rule rather than (or on
	// top of) the component's own check.
	Watchdog bool `json:"watchdog,omitempty"`
}

// Report is the aggregated fleet verdict: the worst component wins.
type Report struct {
	Status     Status            `json:"status"`
	Components []ComponentHealth `json:"components"`
}

// Healthy reports whether no component is Unhealthy (the /healthz criterion).
func (r Report) Healthy() bool { return r.Status != Unhealthy }

// Ready reports whether every component is Healthy (the /readyz criterion).
func (r Report) Ready() bool { return r.Status == Healthy }

// Component returns the named component's line (zero value when absent).
func (r Report) Component(name string) (ComponentHealth, bool) {
	for _, c := range r.Components {
		if c.Name == name {
			return c, true
		}
	}
	return ComponentHealth{}, false
}

// Tracker holds the registered component checks plus the overrides watchdog
// rules impose. All methods are safe for concurrent use and safe on a nil
// receiver (reporting an empty, healthy fleet), matching the obs idiom.
type Tracker struct {
	mu        sync.Mutex
	checks    map[string]CheckFunc
	overrides map[string]Probe
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		checks:    make(map[string]CheckFunc),
		overrides: make(map[string]Probe),
	}
}

// Register installs (or replaces) a component's check.
func (t *Tracker) Register(name string, fn CheckFunc) {
	if t == nil || fn == nil {
		return
	}
	t.mu.Lock()
	t.checks[name] = fn
	t.mu.Unlock()
}

// Deregister removes a component (a detached shard member) and any override
// on it.
func (t *Tracker) Deregister(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.checks, name)
	delete(t.overrides, name)
	t.mu.Unlock()
}

// SetOverride imposes a watchdog verdict on a component. The override is
// folded into reports (the worse of check and override wins) until cleared.
// Components without a registered check may be overridden too — the watchdog
// can degrade a purely synthetic component like "query-latency".
func (t *Tracker) SetOverride(name string, p Probe) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.overrides[name] = p
	t.mu.Unlock()
}

// ClearOverride lifts a watchdog verdict.
func (t *Tracker) ClearOverride(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.overrides, name)
	t.mu.Unlock()
}

// Report runs every registered check, folds in the watchdog overrides and
// aggregates the fleet verdict. Checks run outside the tracker lock so a slow
// check cannot block Register/SetOverride callers.
func (t *Tracker) Report() Report {
	if t == nil {
		return Report{Status: Healthy}
	}
	t.mu.Lock()
	names := make([]string, 0, len(t.checks))
	checks := make([]CheckFunc, 0, len(t.checks))
	for n, fn := range t.checks {
		names = append(names, n)
		checks = append(checks, fn)
	}
	overrides := make(map[string]Probe, len(t.overrides))
	for n, p := range t.overrides {
		overrides[n] = p
	}
	t.mu.Unlock()

	byName := make(map[string]ComponentHealth, len(names)+len(overrides))
	for i, n := range names {
		p := checks[i]()
		byName[n] = ComponentHealth{Name: n, Status: p.Status, Detail: p.Detail}
	}
	for n, p := range overrides {
		c, ok := byName[n]
		if !ok {
			c = ComponentHealth{Name: n}
		}
		if p.Status >= c.Status {
			c.Status = p.Status
			c.Detail = p.Detail
			c.Watchdog = true
		}
		byName[n] = c
	}

	rep := Report{Status: Healthy, Components: make([]ComponentHealth, 0, len(byName))}
	for _, c := range byName {
		rep.Components = append(rep.Components, c)
		rep.Status = Worse(rep.Status, c.Status)
	}
	sort.Slice(rep.Components, func(i, j int) bool {
		return rep.Components[i].Name < rep.Components[j].Name
	})
	return rep
}
