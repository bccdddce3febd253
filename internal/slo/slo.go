// Package slo is the error-budget engine: declarative service-level
// objectives evaluated with multi-window burn-rate rules over sliding
// windows, in the style of the Google SRE workbook's alerting chapter.
//
// An Objective declares what "good" means for a slice of traffic — an
// availability target ("99% of /v1/solve requests succeed over 1h") or
// a latency threshold ("99% of portfolio solves finish within their
// budget plus the contract epsilon over 1h"). A Tracker ingests one
// Sample per served request, buckets good/total counts on a coarse
// time ring, and Evaluate answers the operating questions: how much
// error budget remains in the objective window, how fast is it burning
// over each rule window, and which burn-rate alerts are firing.
//
// Burn rate is the ratio of the observed bad fraction to the budgeted
// bad fraction (1 - target): burn 1 spends exactly the budget over the
// window, burn 14.4 exhausts a 1h budget in ~4 minutes. A rule fires
// only when BOTH its windows exceed the threshold — the long window
// proves the problem is real, the short window proves it is still
// happening — which is what keeps burn-rate alerts precise and fast at
// once.
package slo

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kind discriminates what an objective measures.
type Kind string

const (
	// Availability: a sample is good unless the service failed it
	// (panic, invalid solution, internal error, breaker rejection).
	Availability Kind = "availability"
	// Latency: a sample is good when it finished inside the threshold
	// (fixed ThresholdMS, or the request's own budget plus
	// BudgetEpsilon when ThresholdMS is 0). Samples that failed outright
	// count bad too: a crash is not "fast".
	Latency Kind = "latency"
)

// BudgetEpsilon is the slack granted past a request's budget before a
// budget-relative latency objective counts the sample bad — the same
// 250ms the engine deadline contract grants (contractEpsilon in the root
// package's contract_epsilon_test.go) for bookkeeping between the
// deadline firing and the call returning.
const BudgetEpsilon = 250 * time.Millisecond

// Objective declares one SLO over a slice of traffic.
type Objective struct {
	// Name identifies the objective in metrics, logs and /debug/slo.
	Name string `json:"name"`
	// Kind is Availability or Latency.
	Kind Kind `json:"kind"`
	// Target is the good fraction the objective promises (0 < Target < 1),
	// e.g. 0.99.
	Target float64 `json:"target"`
	// Window is the error-budget accounting window, e.g. 1h.
	Window time.Duration `json:"window"`
	// ThresholdMS is the latency threshold for Latency objectives; 0
	// means budget-relative (duration <= sample budget + BudgetEpsilon).
	ThresholdMS float64 `json:"threshold_ms,omitempty"`
	// Engine and Endpoint filter the samples the objective sees; empty
	// matches any.
	Engine   string `json:"engine,omitempty"`
	Endpoint string `json:"endpoint,omitempty"`
}

// matches reports whether the objective's slice includes s.
func (o *Objective) matches(s Sample) bool {
	if o.Engine != "" && o.Engine != s.Engine {
		return false
	}
	if o.Endpoint != "" && o.Endpoint != s.Endpoint {
		return false
	}
	return true
}

// good classifies one matching sample.
func (o *Objective) good(s Sample) bool {
	switch o.Kind {
	case Latency:
		if s.Failed {
			return false
		}
		limit := time.Duration(o.ThresholdMS * float64(time.Millisecond))
		if o.ThresholdMS == 0 {
			if s.Budget <= 0 {
				return true // no budget to hold the sample to
			}
			limit = s.Budget + BudgetEpsilon
		}
		return s.Duration <= limit
	default:
		return !s.Failed
	}
}

// Validate rejects unusable objectives.
func (o *Objective) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("slo: objective has no name")
	}
	if o.Kind != Availability && o.Kind != Latency {
		return fmt.Errorf("slo: objective %s has unknown kind %q", o.Name, o.Kind)
	}
	if !(o.Target > 0 && o.Target < 1) {
		return fmt.Errorf("slo: objective %s target %v, want 0 < target < 1", o.Name, o.Target)
	}
	if o.Window <= 0 {
		return fmt.Errorf("slo: objective %s has no window", o.Name)
	}
	if o.ThresholdMS < 0 {
		return fmt.Errorf("slo: objective %s has negative threshold", o.Name)
	}
	return nil
}

// Rule is one multi-window burn-rate alert: it fires when the burn
// rate exceeds Burn over BOTH the short and the long window.
type Rule struct {
	// Name labels the rule ("fast", "slow").
	Name string `json:"name"`
	// Short and Long are the paired windows.
	Short time.Duration `json:"short"`
	Long  time.Duration `json:"long"`
	// Burn is the firing threshold (multiples of the budgeted burn).
	Burn float64 `json:"burn"`
}

// DefaultRules returns the two-stage alerting policy the daemon ships
// with: a fast page (burn 14.4 over 5m and 1h — a 1h budget gone in
// ~4m) and a slow ticket (burn 1 over 6h and 3d — budget exhaustion
// pace sustained for days).
func DefaultRules() []Rule {
	return []Rule{
		{Name: "fast", Short: 5 * time.Minute, Long: time.Hour, Burn: 14.4},
		{Name: "slow", Short: 6 * time.Hour, Long: 72 * time.Hour, Burn: 1},
	}
}

// DefaultObjectives returns the daemon's stock SLO set: solve
// availability and budget-relative solve latency on /v1/solve, plus
// session event-batch availability.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "solve-availability", Kind: Availability, Target: 0.99, Window: time.Hour, Endpoint: "/v1/solve"},
		{Name: "solve-latency", Kind: Latency, Target: 0.99, Window: time.Hour, Endpoint: "/v1/solve"},
		{Name: "session-availability", Kind: Availability, Target: 0.999, Window: time.Hour, Endpoint: "/v1/sessions/events"},
	}
}

// Sample is one served request as the SLO engine sees it.
type Sample struct {
	// Engine and Endpoint locate the traffic slice.
	Engine   string
	Endpoint string
	// Failed marks a service failure (panic, invalid solution, internal
	// error, breaker rejection). Client errors and load shedding are
	// the caller's policy call — the daemon excludes them.
	Failed bool
	// Duration is the request's service time.
	Duration time.Duration
	// Budget is the request's own time budget (for budget-relative
	// latency objectives; 0 = none).
	Budget time.Duration
}

// bucketWidth is the time-ring granularity. Burn windows are measured
// in whole buckets, so the shortest window (5m) spans 10 buckets.
const bucketWidth = 30 * time.Second

// bucket is one ring slot: good/total counts for the interval starting
// at start.
type bucket struct {
	start       int64 // unix seconds of the bucket start; -1 when empty
	good, total int64
}

// objState is one objective's tracking state.
type objState struct {
	obj    Objective
	ring   []bucket
	firing map[string]bool // rule name → currently firing
}

// AlertEvent reports one rule transition (fired or resolved) observed
// during Evaluate.
type AlertEvent struct {
	// Objective and Rule name the transition.
	Objective string
	Rule      string
	// Firing is the new state.
	Firing bool
	// ShortBurn and LongBurn are the burn rates that drove it.
	ShortBurn float64
	LongBurn  float64
}

// Tracker ingests samples for a set of objectives and evaluates their
// burn-rate rules. Safe for concurrent use.
type Tracker struct {
	mu      sync.Mutex
	objs    []*objState
	rules   []Rule
	maxWin  time.Duration
	now     func() time.Time
	onAlert func(AlertEvent)
}

// Config builds a Tracker.
type Config struct {
	// Objectives to track (required, each must Validate).
	Objectives []Objective
	// Rules are the burn-rate alert rules (default DefaultRules).
	Rules []Rule
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
	// OnAlert, when set, observes every rule transition found by
	// Evaluate (edge-triggered: once on fire, once on resolve).
	OnAlert func(AlertEvent)
}

// New builds a Tracker over cfg.
func New(cfg Config) (*Tracker, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	rules := cfg.Rules
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	maxWin := time.Duration(0)
	for _, r := range rules {
		if r.Short <= 0 || r.Long <= 0 || r.Short > r.Long || r.Burn <= 0 {
			return nil, fmt.Errorf("slo: rule %q malformed (short %v, long %v, burn %v)", r.Name, r.Short, r.Long, r.Burn)
		}
		if r.Long > maxWin {
			maxWin = r.Long
		}
	}
	t := &Tracker{rules: rules, maxWin: maxWin, now: cfg.Now, onAlert: cfg.OnAlert}
	if t.now == nil {
		t.now = time.Now
	}
	seen := map[string]bool{}
	for _, obj := range cfg.Objectives {
		if err := obj.Validate(); err != nil {
			return nil, err
		}
		if seen[obj.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", obj.Name)
		}
		seen[obj.Name] = true
		win := obj.Window
		if maxWin > win {
			win = maxWin
		}
		n := int(win/bucketWidth) + 1
		ring := make([]bucket, n)
		for i := range ring {
			ring[i].start = -1
		}
		t.objs = append(t.objs, &objState{obj: obj, ring: ring, firing: map[string]bool{}})
	}
	return t, nil
}

// Record ingests one sample into every matching objective.
func (t *Tracker) Record(s Sample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now().Unix()
	start := now - now%int64(bucketWidth/time.Second)
	for _, st := range t.objs {
		if !st.obj.matches(s) {
			continue
		}
		b := &st.ring[int((start/int64(bucketWidth/time.Second))%int64(len(st.ring)))]
		if b.start != start {
			b.start, b.good, b.total = start, 0, 0
		}
		b.total++
		if st.obj.good(s) {
			b.good++
		}
	}
}

// windowCounts sums good/total over the trailing window ending at now:
// every bucket whose interval overlaps (now-window, now]. Stale buckets
// left from a previous ring pass fail the overlap test and drop out
// without explicit invalidation.
func (st *objState) windowCounts(now time.Time, window time.Duration) (good, total int64) {
	lo := now.Add(-window).Unix()
	for i := range st.ring {
		b := &st.ring[i]
		if b.start >= 0 && b.start+int64(bucketWidth/time.Second) > lo {
			good += b.good
			total += b.total
		}
	}
	return good, total
}

// BurnRate is one window's burn reading.
type BurnRate struct {
	// Window labels the window ("5m", "1h", "6h", "3d").
	Window string `json:"window"`
	// Burn is badFraction / (1 - target); 0 when the window is empty.
	Burn float64 `json:"burn"`
	// Total counts the samples the window held.
	Total int64 `json:"total"`
}

// Alert is one rule's evaluated state.
type Alert struct {
	Rule string `json:"rule"`
	// Short/Long label the windows; ShortBurn/LongBurn their burns.
	Short     string  `json:"short"`
	Long      string  `json:"long"`
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	// Threshold is the rule's firing burn.
	Threshold float64 `json:"threshold"`
	// Firing reports both windows over threshold (with traffic).
	Firing bool `json:"firing"`
}

// Status is one objective's evaluation.
type Status struct {
	Objective Objective `json:"objective"`
	// Good and Total count the samples in the objective window.
	Good  int64 `json:"good"`
	Total int64 `json:"total"`
	// Compliance is good/total over the objective window (1 when empty).
	Compliance float64 `json:"compliance"`
	// ErrorBudgetRemaining is the unspent fraction of the objective
	// window's error budget: 1 untouched, 0 exactly spent, negative
	// overspent.
	ErrorBudgetRemaining float64 `json:"error_budget_remaining"`
	// BurnRates covers every distinct rule window.
	BurnRates []BurnRate `json:"burn_rates"`
	// Alerts covers every rule.
	Alerts []Alert `json:"alerts"`
}

// Evaluate computes every objective's status at the tracker's current
// clock, invoking the OnAlert hook for each rule transition.
func (t *Tracker) Evaluate() []Status {
	t.mu.Lock()
	now := t.now()
	out := make([]Status, 0, len(t.objs))
	var events []AlertEvent
	for _, st := range t.objs {
		budget := 1 - st.obj.Target
		status := Status{Objective: st.obj, Compliance: 1, ErrorBudgetRemaining: 1}
		status.Good, status.Total = st.windowCounts(now, st.obj.Window)
		if status.Total > 0 {
			status.Compliance = float64(status.Good) / float64(status.Total)
			status.ErrorBudgetRemaining = 1 - (1-status.Compliance)/budget
		}

		burnOf := func(w time.Duration) (float64, int64) {
			good, total := st.windowCounts(now, w)
			if total == 0 {
				return 0, 0
			}
			bad := float64(total-good) / float64(total)
			return bad / budget, total
		}
		seenWin := map[string]bool{}
		for _, r := range t.rules {
			for _, w := range []time.Duration{r.Short, r.Long} {
				label := windowLabel(w)
				if seenWin[label] {
					continue
				}
				seenWin[label] = true
				burn, total := burnOf(w)
				status.BurnRates = append(status.BurnRates, BurnRate{Window: label, Burn: burn, Total: total})
			}
			shortBurn, shortTotal := burnOf(r.Short)
			longBurn, longTotal := burnOf(r.Long)
			firing := shortTotal > 0 && longTotal > 0 && shortBurn >= r.Burn && longBurn >= r.Burn
			status.Alerts = append(status.Alerts, Alert{
				Rule:      r.Name,
				Short:     windowLabel(r.Short),
				Long:      windowLabel(r.Long),
				ShortBurn: shortBurn,
				LongBurn:  longBurn,
				Threshold: r.Burn,
				Firing:    firing,
			})
			if st.firing[r.Name] != firing {
				st.firing[r.Name] = firing
				events = append(events, AlertEvent{
					Objective: st.obj.Name,
					Rule:      r.Name,
					Firing:    firing,
					ShortBurn: shortBurn,
					LongBurn:  longBurn,
				})
			}
		}
		out = append(out, status)
	}
	t.mu.Unlock()
	// The hook runs outside the lock, so it may safely log, render
	// metrics or even call back into the tracker.
	if t.onAlert != nil {
		for _, ev := range events {
			t.onAlert(ev)
		}
	}
	return out
}

// Firing returns the currently-firing rules as sorted
// "objective/rule" strings — the SLO snapshot diagnostic bundles embed.
// State reflects the most recent Evaluate.
func (t *Tracker) Firing() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for _, st := range t.objs {
		for rule, firing := range st.firing {
			if firing {
				out = append(out, st.obj.Name+"/"+rule)
			}
		}
	}
	sort.Strings(out)
	return out
}

// windowLabel renders a duration compactly: 5m, 1h, 6h, 3d.
func windowLabel(d time.Duration) string {
	switch {
	case d >= 24*time.Hour && d%(24*time.Hour) == 0:
		return fmt.Sprintf("%dd", d/(24*time.Hour))
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	default:
		return d.String()
	}
}
