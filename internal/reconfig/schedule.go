package reconfig

import (
	"errors"
	"fmt"
	"time"
)

// Move is one step of a relocation schedule: move region to its slot.
type Move struct {
	Region int `json:"region"`
	Slot   int `json:"slot"`
}

// ScheduleReport accounts for an executed relocation schedule.
type ScheduleReport struct {
	// Executed counts the moves performed.
	Executed int `json:"executed"`
	// FramesWritten is the configuration frames the schedule wrote.
	FramesWritten int `json:"frames_written"`
	// BusyTime is the configuration-port time the schedule consumed.
	BusyTime time.Duration `json:"busy_time"`
	// FramesVerified counts frames read back from configuration memory
	// after each move and compared against the expected design content.
	FramesVerified int `json:"frames_verified"`
	// CorruptedFrames counts readback mismatches (0 on a correct run).
	CorruptedFrames int `json:"corrupted_frames"`
	// Retries counts frame-write attempts the schedule repeated after
	// injected transient faults or detected corruptions.
	Retries int `json:"retries,omitempty"`
	// RolledBack counts moves undone after a mid-schedule hard failure.
	// Executed is net of rollback: a fully rolled-back schedule reports
	// Executed 0.
	RolledBack int `json:"rolled_back,omitempty"`
}

// ExecuteSchedule runs an ordered relocation schedule move by move. Each
// move must be executable against the state left by the moves before it —
// the planner's no-break guarantee. After every move the region's frames
// are read back from configuration memory and verified against the
// expected design content.
//
// The schedule is transactional: when a move hard-fails (its retry
// budget exhausted, or a substrate rejection), the moves already
// executed are undone in reverse order so the layout returns to its
// pre-schedule state — a partial defrag never strands the plan halfway.
// Reverse order makes each undo target exactly the slot that move
// vacated, so every rollback relocation is conflict-free; rollback
// writes bypass fault injection (every region stays on-fabric either
// way under make-before-break, but a faulted rollback would leave the
// layout in a third state neither the planner nor the caller asked
// for). The report covers the net effect, and the error identifies the
// move that failed.
func (m *Manager) ExecuteSchedule(moves []Move) (*ScheduleReport, error) {
	rep := &ScheduleReport{}
	before := m.stats
	type done struct{ region, from int }
	var executed []done
	var failErr error
	for _, mv := range moves {
		from := m.current[mv.Region]
		if err := m.Relocate(mv.Region, mv.Slot); err != nil {
			failErr = err
			break
		}
		executed = append(executed, done{region: mv.Region, from: from})
		rep.Executed++
		frames, corrupted := m.VerifyRegion(mv.Region)
		rep.FramesVerified += frames
		rep.CorruptedFrames += corrupted
	}
	if failErr != nil {
		plan := m.faults
		m.faults = nil
		for i := len(executed) - 1; i >= 0; i-- {
			d := executed[i]
			if err := m.Relocate(d.region, d.from); err != nil {
				// Cannot happen on the fault-free rollback path (the slot
				// was just vacated); surface it rather than mask it.
				failErr = errors.Join(failErr, fmt.Errorf("rollback of region %d to slot %d: %w", d.region, d.from, err))
				break
			}
			rep.Executed--
			rep.RolledBack++
			m.stats.Rollbacks++
			frames, corrupted := m.VerifyRegion(d.region)
			rep.FramesVerified += frames
			rep.CorruptedFrames += corrupted
		}
		m.faults = plan
	}
	rep.FramesWritten = m.stats.FramesWritten - before.FramesWritten
	rep.BusyTime = m.stats.BusyTime - before.BusyTime
	rep.Retries = m.stats.Retries - before.Retries
	return rep, failErr
}

// VerifyRegion reads the region's frames back from configuration memory
// and compares them against the content its loaded mode should have at
// its current area. It returns the frames checked and how many
// mismatched (missing frames count as corrupted). An unloaded or removed
// region verifies vacuously: (0, 0).
func (m *Manager) VerifyRegion(region int) (frames, corrupted int) {
	if region < 0 || region >= len(m.slots) || m.removed[region] || m.current[region] < 0 {
		return 0, 0
	}
	// The stored image is the region's home-slot bitstream; every slot is
	// relocation-compatible with home, so the expected content at the
	// current area is that image's payloads at the area offset.
	area := m.slots[region][m.current[region]].Area
	bs, err := m.bitstreamFor(region, m.mode[region])
	if err != nil {
		return 0, 0
	}
	dx, dy := area.X-bs.Area.X, area.Y-bs.Area.Y
	for i := range bs.Frames {
		f := &bs.Frames[i]
		addr := f.Addr
		addr.Column += dx
		addr.Row += dy
		frames++
		got, ok := m.cm.Frame(addr)
		if !ok || got != f.Payload {
			corrupted++
		}
	}
	return frames, corrupted
}
