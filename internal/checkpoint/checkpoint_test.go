package checkpoint

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
)

func testNetlist(t *testing.T, m int) *netlist.Netlist {
	t.Helper()
	p, err := polytab.Default(m)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(m, p)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randPoly(r *rand.Rand, terms, maxVar int) anf.Poly {
	p := anf.NewPoly()
	for len(p.Monos()) < terms {
		deg := 1 + r.Intn(4)
		vars := make([]anf.Var, 0, deg)
		for i := 0; i < deg; i++ {
			vars = append(vars, anf.Var(r.Intn(maxVar)))
		}
		p.Toggle(anf.NewMono(vars...))
	}
	return p
}

func TestPackExprRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		p := randPoly(r, 1+r.Intn(40), 64)
		got, err := unpackExpr(packExpr(p))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(p) {
			t.Fatalf("trial %d: round trip changed the polynomial", trial)
		}
	}
	// Empty and constant-one polynomials are legitimate expressions too.
	for _, p := range []anf.Poly{anf.NewPoly(), anf.Constant(true)} {
		got, err := unpackExpr(packExpr(p))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(p) {
			t.Fatal("degenerate polynomial round trip failed")
		}
	}
}

func TestUnpackExprRejectsCorruption(t *testing.T) {
	for name, s := range map[string]string{
		"not base64":    "!!!not-base64!!!",
		"empty":         "",
		"huge count":    "/////w8=", // uvarint claiming far more terms than bytes
		"truncated":     packExpr(anf.Variable(3))[:2],
		"trailing junk": packExpr(anf.NewPoly()) + "AAAA",
	} {
		if _, err := unpackExpr(s); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: got %v, want ErrCheckpoint", name, err)
		}
	}
}

func testSnapshot(t *testing.T, n *netlist.Netlist, done int) *Snapshot {
	t.Helper()
	hash, err := HashNetlist(n)
	if err != nil {
		t.Fatal(err)
	}
	outs := n.OutputNames()
	s := &Snapshot{NetlistHash: hash, NetlistName: n.Name, M: len(outs), Retries: 2}
	r := rand.New(rand.NewSource(7))
	for i, name := range outs {
		c := Cone{Bit: i, Name: name}
		if i < done {
			expr := randPoly(r, 1+r.Intn(9), 32)
			c = FromBitResult(rewrite.BitResult{
				BitStats: rewrite.BitStats{
					Bit: i, Name: name, ConeGates: 10 + i, Substitutions: 20,
					PeakTerms: 50, FinalTerms: expr.Len(), Runtime: time.Millisecond,
				},
				Expr:   expr,
				Status: rewrite.StatusOK,
			})
		}
		s.Bits = append(s.Bits, c)
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	n := testNetlist(t, 8)
	s := testSnapshot(t, n, 5)
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NetlistHash != s.NetlistHash || got.M != s.M || got.Retries != s.Retries {
		t.Fatalf("header fields changed: %+v", got)
	}
	if got.DoneCones() != 5 || got.PendingCones() != 3 {
		t.Fatalf("done=%d pending=%d, want 5/3", got.DoneCones(), got.PendingCones())
	}
	for i := range s.Bits {
		want, err := s.Bits[i].BitResult()
		if err != nil {
			t.Fatal(err)
		}
		gotBR, err := got.Bits[i].BitResult()
		if err != nil {
			t.Fatal(err)
		}
		if !gotBR.Expr.Equal(want.Expr) || gotBR.Status != want.Status {
			t.Fatalf("bit %d changed across encode/decode", i)
		}
	}
}

// corrupt returns a copy of enc with one deterministic mutation applied.
func corrupt(enc []byte, mutate func([]byte)) []byte {
	c := append([]byte(nil), enc...)
	mutate(c)
	return c
}

func TestDecodeRejectsCorruption(t *testing.T) {
	n := testNetlist(t, 4)
	var buf bytes.Buffer
	if err := Encode(&buf, testSnapshot(t, n, 2)); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	cases := map[string][]byte{
		"empty":         nil,
		"short header":  enc[:headerLen-1],
		"bad magic":     corrupt(enc, func(b []byte) { b[0] = 'X' }),
		"version skew":  corrupt(enc, func(b []byte) { binary.BigEndian.PutUint32(b[8:], Version+1) }),
		"huge length":   corrupt(enc, func(b []byte) { binary.BigEndian.PutUint64(b[12:], maxPayload+1) }),
		"short payload": enc[:len(enc)-3],
		"long payload":  append(append([]byte(nil), enc...), 0xAA),
		"crc mismatch":  corrupt(enc, func(b []byte) { b[len(b)-1] ^= 1 }),
		"payload flip":  corrupt(enc, func(b []byte) { b[headerLen+4] ^= 0x10 }),
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: got %v, want ErrCheckpoint", name, err)
		}
	}
}

func TestValidateRejectsStructuralDamage(t *testing.T) {
	n := testNetlist(t, 4)
	fresh := func() *Snapshot { return testSnapshot(t, n, 2) }

	for name, breakIt := range map[string]func(*Snapshot){
		"zero m":          func(s *Snapshot) { s.M = 0 },
		"short hash":      func(s *Snapshot) { s.NetlistHash = "abc" },
		"non-hex hash":    func(s *Snapshot) { s.NetlistHash = string(bytes.Repeat([]byte("z"), 64)) },
		"bit count":       func(s *Snapshot) { s.Bits = s.Bits[:len(s.Bits)-1] },
		"bit index":       func(s *Snapshot) { s.Bits[1].Bit = 3 },
		"unknown status":  func(s *Snapshot) { s.Bits[0].Status = "melted" },
		"expr on pending": func(s *Snapshot) { s.Bits[3].Expr = packExpr(anf.Variable(1)) },
		"terms mismatch":  func(s *Snapshot) { s.Bits[0].FinalTerms++ },
		"corrupt expr":    func(s *Snapshot) { s.Bits[0].Expr = "!!" },
		"duplicate mono":  func(s *Snapshot) { s.Bits[0].Expr = dupMonoExpr(); s.Bits[0].FinalTerms = 2 },
	} {
		s := fresh()
		breakIt(s)
		var buf bytes.Buffer
		if err := Encode(&buf, s); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: got %v, want ErrCheckpoint", name, err)
		}
	}
}

// dupMonoExpr hand-packs an expression whose two monomials are identical —
// something packExpr can never emit but a corrupted file can claim.
func dupMonoExpr() string {
	var raw []byte
	raw = binary.AppendUvarint(raw, 2) // two terms
	for i := 0; i < 2; i++ {
		raw = binary.AppendUvarint(raw, 1) // one variable
		raw = binary.AppendUvarint(raw, 5) // var 5
	}
	return base64.StdEncoding.EncodeToString(raw)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}
	n := testNetlist(t, 8)
	s := testSnapshot(t, n, 3)
	if err := Save(dir, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.DoneCones() != 3 {
		t.Fatalf("done=%d after reload, want 3", got.DoneCones())
	}
	// Overwrite with a later snapshot; the reader must see the new one and
	// no temp files may linger.
	s2 := testSnapshot(t, n, 6)
	if err := Save(dir, s2); err != nil {
		t.Fatal(err)
	}
	got, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.DoneCones() != 6 {
		t.Fatalf("done=%d after overwrite, want 6", got.DoneCones())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != SnapshotFile {
		t.Fatalf("directory not clean after save: %v", ents)
	}
}

func TestLoadRejectsTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	n := testNetlist(t, 4)
	if err := Save(dir, testSnapshot(t, n, 2)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("truncated file: got %v, want ErrCheckpoint", err)
	}
}

// TestWriteFileAtomicReplaces: a successful write replaces the existing
// file; a failing one leaves it untouched. Neither leaves a temp file.
func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeString := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFileAtomic(path, writeString("new")); err != nil {
		t.Fatal(err)
	}
	assertFile := func(want string) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("file holds %q (%v), want %q", got, err, want)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
			t.Fatalf("temp files left behind: %v", tmps)
		}
	}
	assertFile("new")

	boom := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if err := writeString("torn")(w); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write's error", err)
	}
	assertFile("new")
}

func TestManagerRecordRestore(t *testing.T) {
	dir := t.TempDir()
	n := testNetlist(t, 8)

	mgr := NewManager(dir)
	if err := mgr.Begin(n); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	outs := n.OutputNames()
	want := map[int]anf.Poly{}
	for _, bit := range []int{0, 3, 5} {
		expr := randPoly(r, 1+r.Intn(9), 32)
		want[bit] = expr
		mgr.Record(rewrite.BitResult{
			BitStats: rewrite.BitStats{Bit: bit, Name: outs[bit], FinalTerms: expr.Len()},
			Expr:     expr,
			Status:   rewrite.StatusOK,
		})
	}
	// A failed cone is recorded for diagnostics but not counted done.
	mgr.Record(rewrite.BitResult{
		BitStats: rewrite.BitStats{Bit: 6, Name: outs[6]},
		Status:   rewrite.StatusBudget,
		Err:      "budget exceeded",
	})
	mgr.AddRetries(4)
	if err := mgr.Sync(); err != nil {
		t.Fatal(err)
	}

	// A fresh manager (a restarted process) restores the done cones.
	mgr2 := NewManager(dir)
	prior, err := mgr2.Restore(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 3 {
		t.Fatalf("restored %d priors, want 3", len(prior))
	}
	for _, br := range prior {
		exp, ok := want[br.Bit]
		if !ok || !br.Expr.Equal(exp) {
			t.Fatalf("bit %d restored with the wrong expression", br.Bit)
		}
	}
	snap := mgr2.Snapshot()
	if snap.Retries != 4 {
		t.Fatalf("retries=%d survived restart, want 4", snap.Retries)
	}
	if st := snap.Bits[6].Status; st != string(rewrite.StatusBudget) {
		t.Fatalf("failed cone status %q not preserved", st)
	}
}

func TestManagerRestoreRejectsForeignNetlist(t *testing.T) {
	dir := t.TempDir()
	mgr := NewManager(dir)
	if err := mgr.Begin(testNetlist(t, 8)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	// Same output count, different structure: polytab has one default per m,
	// so build the other netlist with a different architecture.
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	other, err := gen.Montgomery(8, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(dir).Restore(other); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("foreign netlist: got %v, want ErrCheckpoint", err)
	}
}

func TestManagerRestoreEmptyDirBeginsFresh(t *testing.T) {
	dir := t.TempDir()
	n := testNetlist(t, 4)
	mgr := NewManager(dir)
	prior, err := mgr.Restore(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh dir produced %d priors", len(prior))
	}
	if mgr.Snapshot() == nil {
		t.Fatal("Restore on an empty dir did not Begin")
	}
}

// TestManagerSaveCadence pins the manager's one save cadence: the first
// Record after Begin saves, and so does the first after Restore; a
// back-to-back Record does not; Sync and Finalize flush; a failed save stays
// sticky. The window is widened to an hour so "back to back" holds on any
// machine, and nothing sleeps.
func TestManagerSaveCadence(t *testing.T) {
	defer func(w time.Duration) { saveInterval = w }(saveInterval)
	saveInterval = time.Hour

	n := testNetlist(t, 8)
	outs := n.OutputNames()
	record := func(mgr *Manager, bit int) {
		mgr.Record(rewrite.BitResult{
			BitStats: rewrite.BitStats{Bit: bit, Name: outs[bit], FinalTerms: 1},
			Expr:     anf.Variable(anf.Var(bit + 1)),
			Status:   rewrite.StatusOK,
		})
	}
	dir := t.TempDir()
	onDisk := func(want int, after string) *Snapshot {
		t.Helper()
		s, err := Load(dir)
		if err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
		if s.DoneCones() != want {
			t.Fatalf("after %s: %d cones on disk, want %d", after, s.DoneCones(), want)
		}
		return s
	}

	mgr := NewManager(dir)
	if err := mgr.Begin(n); err != nil {
		t.Fatal(err)
	}
	record(mgr, 0)
	onDisk(1, "the first Record after Begin")
	record(mgr, 1)
	onDisk(1, "a back-to-back Record")
	if err := mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	onDisk(2, "Sync")

	// Restore (here on the manager that just saved, so the window is still
	// open) restarts the cadence: its first Record saves as well.
	if _, err := mgr.Restore(n); err != nil {
		t.Fatal(err)
	}
	record(mgr, 2)
	onDisk(3, "the first Record after Restore")
	record(mgr, 3)
	onDisk(3, "a back-to-back Record after Restore")
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Finalize(p); err != nil {
		t.Fatal(err)
	}
	if s := onDisk(4, "Finalize"); !s.Complete {
		t.Fatal("Finalize did not mark the snapshot complete")
	}

	// A save error is sticky: once the directory becomes writable again the
	// next saves succeed, but Sync and Finalize still report the first
	// failure until the next Begin.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(blocker, "ckpt")
	mgr = NewManager(dir)
	if err := mgr.Begin(n); err != nil {
		t.Fatal(err)
	}
	record(mgr, 0) // the first save fails: dir's parent is a regular file
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	record(mgr, 1) // no save has landed, so this Record saves
	onDisk(2, "a Record following a failed save")
	first := mgr.Sync()
	if first == nil {
		t.Fatal("Sync reported no error after a failed save")
	}
	if err := mgr.Finalize(p); err != first {
		t.Fatalf("Finalize returned %v, want the sticky %v", err, first)
	}
	onDisk(2, "Finalize after a failed save")
	if err := mgr.Begin(n); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Sync(); err != nil {
		t.Fatalf("Begin did not clear the sticky error: %v", err)
	}
}

func TestFinalizeMarksComplete(t *testing.T) {
	dir := t.TempDir()
	n := testNetlist(t, 8)
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(dir)
	if err := mgr.Begin(n); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Finalize(p); err != nil {
		t.Fatal(err)
	}
	s, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Complete || s.P != p.String() {
		t.Fatalf("finalized snapshot: complete=%v p=%q", s.Complete, s.P)
	}
}
