package floorplanner

import (
	"repro/internal/session"
)

// Online-placement surface: the library facade over internal/session.
// Where Solve answers one offline instance, a Session is a stateful
// manager over a live device — arrivals placed best-fit into maximal
// empty rectangles (with a budgeted floorplanner fallback), departures
// freeing space, and threshold-triggered no-break defragmentation whose
// every move flows through the bitstream config-memory model.
type (
	// Session is a stateful online-placement manager; see session.Manager.
	Session = session.Manager
	// SessionConfig parameterizes NewSession; see session.Config.
	SessionConfig = session.Config
	// SessionEvent is one arrival or departure.
	SessionEvent = session.Event
	// SessionEventKind discriminates SessionEvent.
	SessionEventKind = session.EventKind
	// SessionEventResult reports what one event did.
	SessionEventResult = session.EventResult
	// SessionSnapshot is a point-in-time view of a Session.
	SessionSnapshot = session.Snapshot
	// SessionStats are a Session's accumulated counters.
	SessionStats = session.Stats
	// DefragReport describes one defragmentation cycle.
	DefragReport = session.DefragReport
	// WorkloadConfig parameterizes GenerateWorkload.
	WorkloadConfig = session.WorkloadConfig
)

// Session event kinds.
const (
	// SessionArrival asks the session to place and configure a module.
	SessionArrival = session.Arrival
	// SessionDeparture retires a live module and frees its area.
	SessionDeparture = session.Departure
)

// NewSession builds an empty online-placement session over cfg.Device.
// Set cfg.Engine (e.g. via NewEngine) to enable the floorplanner
// fallback for arrivals greedy placement cannot fit.
func NewSession(cfg SessionConfig) (*Session, error) { return session.New(cfg) }

// GenerateWorkload produces a deterministic seeded arrival/departure
// stream for driving a Session (the generator behind
// `floorplanner -session seeded:N`).
func GenerateWorkload(cfg WorkloadConfig) []SessionEvent { return session.GenerateWorkload(cfg) }
