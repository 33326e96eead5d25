package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded by the driver around its own calls into a layer;
// spans inside the program are a later change (ROADMAP internal/trace).

type spanName uint8

const (
	spanSlice spanName = iota
	spanGen
	spanExec
	spanOracle
	spanRef
	spanTransaction
	spanWrite
	spanIdle
	spanSubmit
	spanWait
	spanAdvanceTo
	spanSubmitAll
	spanClusterWait
)

var spanNames = [...]string{
	spanSlice:       "slice",
	spanGen:         "workload.NextOp",
	spanExec:        "exec",
	spanOracle:      "oracle",
	spanRef:         "ref_kernel",
	spanTransaction: "tpca.Bank.Transaction",
	spanWrite:       "envy.Device.Write",
	spanIdle:        "envy.Device.Idle",
	spanSubmit:      "envy.Device.Submit",
	spanWait:        "envy.Device.Wait",
	spanAdvanceTo:   "cluster.AdvanceTo",
	spanSubmitAll:   "cluster.SubmitAll",
	spanClusterWait: "cluster.Wait",
}

type span struct {
	name       spanName
	parent, op int32
	start, end int64 // wall ns since the tracer started
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so exec paths call it
// unconditionally.
type tracer struct {
	t0     time.Time
	spans  []span
	parent int32 // the span new call spans hang under
	opBase int32 // op id of the current slice's first op
}

// maxSpans bounds the trace file (≈35 B of JSON per span). A traced
// repetition records call spans on every k-th slice only, k chosen so
// the total stays under this.
const maxSpans = 400_000

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans+maxSpans/8), parent: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a call span for the op at index op of the current slice.
func (t *tracer) begin(name spanName, op int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: t.parent, op: t.opBase + int32(op), start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].end = t.now()
	}
}

// add records a span whose timestamps the driver already took.
func (t *tracer) add(name spanName, parent int32, start, end time.Time) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, op: -1,
		start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))})
	return int32(len(t.spans) - 1)
}

type spanSummary struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"` // span minus the part its children cover
}

func (t *tracer) summary() map[string]*spanSummary {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := make(map[string]*spanSummary)
	for i, s := range t.spans {
		name := spanNames[s.name]
		sum := out[name]
		if sum == nil {
			sum = &spanSummary{}
			out[name] = sum
		}
		sum.Count++
		sum.TotalNs += s.end - s.start
		sum.SelfNs += self[i]
	}
	return out
}

// statsSnapshot is the per-layer counter state every 64 slices.
type statsSnapshot struct {
	Slice    int                `json:"slice"`
	SimNs    int64              `json:"sim_ns"`
	Counters map[string]float64 `json:"counters"`
}

// write stores the trace as DIR/<workload>.trace.json.
func (t *tracer) write(dir, workload string, seed uint64, snaps []statsSnapshot) (path string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path = filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	head := struct {
		Workload string                  `json:"workload"`
		Seed     uint64                  `json:"seed"`
		Names    []string                `json:"names"`
		Columns  []string                `json:"columns"`
		Summary  map[string]*spanSummary `json:"summary"`
		Stats    []statsSnapshot         `json:"stats"`
	}{workload, seed, spanNames[:], []string{"id", "parent", "op", "name", "start_ns", "end_ns"}, t.summary(), snaps}
	hb, err := json.Marshal(head)
	if err != nil {
		return "", err
	}
	// The header object is left open and the span rows appended to it.
	w.Write(hb[:len(hb)-1])
	w.WriteString(`,"spans":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d,%d]", i, s.parent, s.op, s.name, s.start, s.end)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
