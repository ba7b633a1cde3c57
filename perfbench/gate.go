package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"optinline/internal/callgraph"
	"optinline/internal/codegen"
	"optinline/internal/compile"
	"optinline/internal/interp"
	"optinline/internal/ir"
)

// The correctness gate runs after the timed passes, never inside them.

const (
	// naiveSites bounds the exhaustive cross-check: on units with at most
	// this many sites (a naive space of 2^10) the optimum must equal
	// search.NaiveOptimal's.
	naiveSites = 10
	// gateFuel bounds each interpretation the gate runs; programs whose
	// no-inline build does not finish within it are not executed.
	gateFuel = 4_000_000
)

// gate counts failed ops: requests that errored or were refused, answers
// that differ across passes or clients, and answers that fail a reference
// check. Checks run concurrently.
type gate struct {
	mu       sync.Mutex
	failed   int
	failures []string
	inject   atomic.Bool
}

func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failed++
	if len(g.failures) < 20 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// expect checks a reported number against its reference. With
// --inject-mismatch the first reference checked is off by one.
func (g *gate) expect(what string, got, want int) bool {
	if g.inject.CompareAndSwap(true, false) {
		want++
	}
	if got != want {
		g.fail("%s: answer %d, reference %d", what, got, want)
		return false
	}
	return true
}

// answers keeps the first answer to every op key and holds each later
// answer to the same key to the same bytes, link session ids normalized
// away, as in inlineload -verify.
type answers struct {
	gate   *gate
	sent   int
	bodies map[string][]byte
}

func (a *answers) add(samples []sample) {
	for _, s := range samples {
		a.sent++
		switch {
		case s.err != nil:
			a.gate.fail("%s: %v", s.op.key, s.err)
			continue
		case s.status != http.StatusOK:
			a.gate.fail("%s: status %d: %s", s.op.key, s.status, truncate(s.body))
			continue
		}
		body := bytes.ReplaceAll(s.body, []byte(`"id":"edit-`+strconv.Itoa(s.client)+`"`), []byte(`"id":"*"`))
		prev, seen := a.bodies[s.op.key]
		if !seen {
			a.bodies[s.op.key] = body
		} else if !bytes.Equal(prev, body) {
			a.gate.fail("%s: answer differs from the first:\n  %s\n  %s", s.op.key, truncate(prev), truncate(body))
		}
	}
}

// decode parses op o's first answer; false when it has none (the failed
// request is already counted) or it does not parse.
func (r *report) decode(o *op, v any) bool {
	body, ok := r.answers.bodies[o.key]
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		r.gate.fail("%s: bad answer: %v", o.key, err)
		return false
	}
	return true
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// freshBuild compiles sites with a new compiler through the full
// pipeline, consulting no cache.
func freshBuild(m *ir.Module, sites []int) (*ir.Module, int, error) {
	built, err := compile.New(m, codegen.TargetX86).Build(callgraph.NewConfigOf(sites))
	if err != nil {
		return nil, 0, err
	}
	return built, codegen.ModuleSize(built, codegen.TargetX86), nil
}

// execute interprets entry(7) under the i-cache model; false when the
// module has no entry or the run does not finish within gateFuel.
func execute(m *ir.Module) (interp.Result, bool) {
	if m.Func("entry") == nil {
		return interp.Result{}, false
	}
	res, err := interp.Run(m, "entry", entryArgs, interp.Options{
		Fuel: gateFuel, SizeOf: codegen.SizeOf(m, codegen.TargetX86)})
	return res, err == nil
}

// program is what the gate measured of one returned configuration.
type program struct {
	size         int
	cycles, base int64 // interpreted cycles of it and of the no-inline build; 0 when not run
}

// checkProgram rebuilds a returned configuration from scratch and checks
// the reported size against it, then — when the no-inline program finishes
// within gateFuel — that the configuration's program computes the same
// return value and output.
func (g *gate) checkProgram(what string, m *ir.Module, sites []int, size int) program {
	p := program{size: size}
	built, got, err := freshBuild(m, sites)
	if err != nil {
		g.fail("%s: fresh build: %v", what, err)
		return p
	}
	if !g.expect(what+" size", size, got) {
		return p
	}
	base, _, err := freshBuild(m, nil)
	if err != nil {
		g.fail("%s: fresh no-inline build: %v", what, err)
		return p
	}
	want, ok := execute(base)
	if !ok {
		return p
	}
	have, ok := execute(built)
	if !ok || have.Observable() != want.Observable() {
		g.fail("%s: entry(7) differs from the no-inline program's", what)
		return p
	}
	p.cycles, p.base = have.Cycles, want.Cycles
	return p
}

// quality sums what a fixed set of answers produced: code bytes, and the
// interpreted cycles of the programs that run.
type quality struct {
	mu       sync.Mutex
	bytes    int64
	cycles   int64
	logRatio float64 // sum of ln(cycles / no-inline cycles)
	ran      int
}

func (q *quality) add(p program, withCycles bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.bytes += int64(p.size)
	if withCycles && p.cycles > 0 && p.base > 0 {
		q.cycles += p.cycles
		q.logRatio += math.Log(float64(p.cycles) / float64(p.base))
		q.ran++
	}
}

func (r *report) quality(q *quality) {
	r.values["code_bytes"] = float64(q.bytes)
	r.values["run_cycles"] = float64(q.cycles)
	r.record["programsRun"] = q.ran
	if q.ran > 0 {
		r.record["runCyclesVsNoInlineGeomean"] = math.Exp(q.logRatio / float64(q.ran))
	}
}
