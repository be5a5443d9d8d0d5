package checkpoint

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// Manager owns one extraction's snapshot lifecycle: it is the glue between
// the rewriting engine's per-cone completion hook and the crash-safe file in
// its directory. All methods are safe for concurrent use — Record is called
// from every rewriting worker.
//
// Saves follow one cadence: the first Record after Begin or Restore writes
// the file, and later ones write it at most once per saveInterval — a Record
// inside the window only updates the in-memory snapshot and marks it dirty.
// Sync and Finalize always write. Cones complete far more often than the
// window on small fields, so the file-write cost stays bounded while a crash
// loses at most one window of completed cones — each of which the resumed
// run simply re-rewrites (the cones are independent, Theorem 2).
type Manager struct {
	dir string

	mu       sync.Mutex
	snap     *Snapshot
	lastSave time.Time
	dirty    bool
	saveErr  error
}

// saveInterval is the minimum time between two Record-triggered saves. It
// is a variable only so tests can widen the window deterministically.
var saveInterval = 250 * time.Millisecond

// NewManager creates a manager persisting into dir.
func NewManager(dir string) *Manager { return &Manager{dir: dir} }

// Dir returns the snapshot directory.
func (m *Manager) Dir() string { return m.dir }

// Begin initializes a fresh snapshot for n, discarding any in-memory state
// (the on-disk file is only replaced at the first save).
func (m *Manager) Begin(n *netlist.Netlist) error {
	hash, err := HashNetlist(n)
	if err != nil {
		return err
	}
	outs := n.OutputNames()
	s := &Snapshot{
		NetlistHash: hash,
		NetlistName: n.Name,
		M:           len(outs),
		Bits:        make([]Cone, len(outs)),
	}
	for i, name := range outs {
		s.Bits[i] = Cone{Bit: i, Name: name}
	}
	m.mu.Lock()
	m.snap = s
	m.dirty = true
	m.lastSave = time.Time{}
	m.saveErr = nil
	m.mu.Unlock()
	return nil
}

// Restore loads the directory's snapshot, verifies it matches n (content
// hash and output count), adopts it as the manager's state, and returns the
// completed cones as prior results for rewrite.Options.Prior. A missing
// snapshot falls back to Begin and returns no priors; a snapshot bound to a
// different netlist is ErrCheckpoint — resuming it would splice foreign
// expressions into this run.
func (m *Manager) Restore(n *netlist.Netlist) ([]rewrite.BitResult, error) {
	s, err := Load(m.dir)
	if errors.Is(err, ErrNoCheckpoint) {
		return nil, m.Begin(n)
	}
	if err != nil {
		return nil, err
	}
	hash, err := HashNetlist(n)
	if err != nil {
		return nil, err
	}
	if s.NetlistHash != hash {
		return nil, fmt.Errorf("%w: snapshot is for netlist %s (%.12s…), resuming %s (%.12s…)",
			ErrCheckpoint, s.NetlistName, s.NetlistHash, n.Name, hash)
	}
	if s.M != len(n.Outputs()) {
		return nil, fmt.Errorf("%w: snapshot has %d bits, netlist %d", ErrCheckpoint, s.M, len(n.Outputs()))
	}
	prior := make([]rewrite.BitResult, 0, s.DoneCones())
	for _, c := range s.Bits {
		if !c.Done() {
			continue
		}
		br, err := c.BitResult()
		if err != nil {
			return nil, err
		}
		prior = append(prior, br)
	}
	m.mu.Lock()
	m.snap = s
	m.dirty = false
	m.lastSave = time.Time{}
	m.saveErr = nil
	m.mu.Unlock()
	return prior, nil
}

// Record stores one cone's terminal result and saves the snapshot when the
// save cadence allows. Failed cones are recorded too — their status and
// error survive the restart as diagnostics — but stay pending for resume
// purposes. Write errors are sticky and surface from Sync.
func (m *Manager) Record(br rewrite.BitResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil || br.Bit < 0 || br.Bit >= len(m.snap.Bits) {
		return
	}
	m.snap.Bits[br.Bit] = FromBitResult(br)
	m.dirty = true
	if time.Since(m.lastSave) >= saveInterval {
		m.saveLocked()
	}
}

// AddRetries folds one run's governor retry count into the snapshot's
// cumulative total, so the retry state survives restarts.
func (m *Manager) AddRetries(retries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil || retries == 0 {
		return
	}
	m.snap.Retries += retries
	m.dirty = true
}

// Finalize records the recovered polynomial, marks the snapshot complete,
// and forces a save.
func (m *Manager) Finalize(p gf2poly.Poly) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil {
		return nil
	}
	m.snap.P = p.String()
	m.snap.Complete = true
	m.dirty = true
	m.saveLocked()
	return m.saveErr
}

// Sync forces a save of any dirty state and reports the first write error
// seen since the last Begin/Restore. Call on every shutdown path — it is
// what bounds the work lost to an interrupt to the in-flight cones.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap != nil && m.dirty {
		m.saveLocked()
	}
	return m.saveErr
}

// Snapshot returns a copy of the in-memory snapshot (nil before Begin).
func (m *Manager) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil {
		return nil
	}
	cp := *m.snap
	cp.Bits = append([]Cone(nil), m.snap.Bits...)
	return &cp
}

// saveLocked writes the snapshot; the caller holds m.mu.
func (m *Manager) saveLocked() {
	m.snap.SavedUnixNS = time.Now().UnixNano()
	if err := Save(m.dir, m.snap); err != nil {
		if m.saveErr == nil {
			m.saveErr = err
		}
		return
	}
	m.dirty = false
	m.lastSave = time.Now()
}
