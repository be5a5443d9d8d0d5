package eval

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"

	"github.com/galoisfield/gfre/internal/obs"
)

// BenchReport is the machine-readable form of one measured extraction — the
// schema of the BENCH_<design>.json perf-trajectory records that gfbench
// -benchjson emits. Phase and per-bit breakdowns come from the telemetry
// recorder attached to every eval row, so successive PRs can diff where the
// time went, not just the total.
type BenchReport struct {
	Design         string       `json:"design"`
	M              int          `json:"m"`
	P              string       `json:"p"`
	Eqns           int          `json:"eqns"`
	Threads        int          `json:"threads"`
	RuntimeSeconds float64      `json:"runtime_seconds"`
	MemBytes       int64        `json:"mem_bytes"`
	OK             bool         `json:"ok"`
	Error          string       `json:"error,omitempty"`
	Phases         []BenchPhase `json:"phases,omitempty"`
	Bits           []BenchBit   `json:"bits,omitempty"`
	Metrics        obs.Snapshot `json:"metrics"`
}

// BenchPhase is one pipeline phase's wall-clock share.
type BenchPhase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// BenchBit is one output bit's rewriting cost (Figure 4's data points).
type BenchBit struct {
	Bit       int     `json:"bit"`
	Name      string  `json:"name"`
	Cone      int     `json:"cone"` // cone gates the rewriting sweep reached
	Subst     int     `json:"subst"`
	Peak      int     `json:"peak"`
	Final     int     `json:"final"`
	Cancelled int     `json:"cancelled"`
	Seconds   float64 `json:"seconds"`
}

// NewBenchReport projects a measured Row into the BENCH schema.
func NewBenchReport(r Row) BenchReport {
	rep := BenchReport{
		Design:         r.Label,
		M:              r.M,
		P:              r.P.String(),
		Eqns:           r.Eqns,
		Threads:        Threads,
		RuntimeSeconds: r.Runtime.Seconds(),
		MemBytes:       r.Mem,
		OK:             r.OK,
		Error:          r.Err,
		Metrics:        r.Metrics,
	}
	for _, ph := range r.Phases {
		rep.Phases = append(rep.Phases, BenchPhase{Name: ph.Name, Seconds: ph.Duration.Seconds()})
	}
	for _, b := range r.Bits {
		rep.Bits = append(rep.Bits, BenchBit{
			Bit: b.Bit, Name: b.Name, Cone: b.ConeGates, Subst: b.Substitutions,
			Peak: b.PeakTerms, Final: b.FinalTerms, Cancelled: b.Cancelled,
			Seconds: b.Runtime.Seconds(),
		})
	}
	return rep
}

// WriteBenchReport renders one row's BENCH JSON to w.
func WriteBenchReport(w io.Writer, r Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewBenchReport(r))
}

// BenchFileName returns the canonical file name for a row's report,
// BENCH_<design>_m<M>.json with the design label slugged.
func BenchFileName(r Row) string {
	slug := strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			return c
		case c >= 'A' && c <= 'Z':
			return c + ('a' - 'A')
		default:
			return '-'
		}
	}, r.Label)
	return "BENCH_" + slug + "_m" + strconv.Itoa(r.M) + ".json"
}
