package ir

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// storage records, by identity, what every block and instruction of some
// functions points at: parameter, instruction, operand and successor
// lists. Clone carves these lists out of shared slabs, so an append that
// wrote past a list's end would show up as a change in a neighbour.
type storage struct {
	params, instrs map[*Block]string
	args, succs    map[*Instr]string
}

func record(fs ...*Function) storage {
	s := storage{
		params: map[*Block]string{}, instrs: map[*Block]string{},
		args: map[*Instr]string{}, succs: map[*Instr]string{},
	}
	for _, f := range fs {
		if f == nil {
			continue
		}
		for _, b := range f.Blocks {
			s.params[b] = ptrs(b.Params)
			s.instrs[b] = ptrs(b.Instrs)
			for _, in := range b.Instrs {
				s.args[in] = ptrs(in.Args)
				succ := ""
				for _, sc := range in.Succs {
					succ += ptrs([]*Block{sc.Dest}) + "(" + ptrs(sc.Args) + ")"
				}
				s.succs[in] = succ
			}
		}
	}
	return s
}

func ptrs[T any](xs []*T) string {
	out := ""
	for _, x := range xs {
		out += fmt.Sprintf("%p,", x)
	}
	return out
}

// sameExcept fails the test if any list in before differs in after, other
// than the one block or instruction the mutation was aimed at.
func sameExcept(t *testing.T, what string, before, after storage, skipB *Block, skipI *Instr) {
	t.Helper()
	for b, v := range before.params {
		if b != skipB && after.params[b] != v {
			t.Fatalf("%s changed the parameters of block %s", what, b.Name)
		}
	}
	for b, v := range before.instrs {
		if b != skipB && after.instrs[b] != v {
			t.Fatalf("%s changed the instructions of block %s", what, b.Name)
		}
	}
	for in, v := range before.args {
		if in != skipI && after.args[in] != v {
			t.Fatalf("%s changed the operands of a %s", what, in.Op)
		}
	}
	for in, v := range before.succs {
		if in != skipI && after.succs[in] != v {
			t.Fatalf("%s changed the successors of a %s", what, in.Op)
		}
	}
}

// TestCloneSlabsDoNotAlias appends to each block's and each instruction's
// lists of a clone in turn, and requires every other block and instruction,
// of the clone and of the original, to be left as it was. An arena carves
// the next clone right after the first, from the same slabs, so that one
// must be left as it was too.
func TestCloneSlabsDoNotAlias(t *testing.T) {
	// A built function is cloned through maps, a clone through its numbers.
	for _, orig := range []*Function{buildLoop(), buildLoop().Clone()} {
		cloneSlabsDoNotAlias(t, orig, func() (*Function, *Function) { return orig.Clone(), nil })
		var a Arena
		cloneSlabsDoNotAlias(t, orig, func() (*Function, *Function) {
			a.Release()
			return orig.CloneIn(&a), orig.CloneIn(&a)
		})
	}
}

func cloneSlabsDoNotAlias(t *testing.T, orig *Function, clone func() (c, next *Function)) {
	extra := &Value{ID: 999}
	mutations := []struct {
		name   string
		blocks bool
		apply  func(b *Block, in *Instr)
	}{
		{"appending to Instrs", true, func(b *Block, _ *Instr) { b.Instrs = append(b.Instrs, &Instr{Op: OpRet}) }},
		{"appending to Params", true, func(b *Block, _ *Instr) { b.Params = append(b.Params, extra) }},
		{"appending to Args", false, func(_ *Block, in *Instr) { in.Args = append(in.Args, extra) }},
		{"appending to successor Args", false, func(_ *Block, in *Instr) {
			for i := range in.Succs {
				in.Succs[i].Args = append(in.Succs[i].Args, extra)
			}
		}},
		{"appending to Succs", false, func(_ *Block, in *Instr) { in.Succs = append(in.Succs, Succ{}) }},
	}
	for _, m := range mutations {
		for bi := range orig.Blocks {
			for ii := -1; ii < len(orig.Blocks[bi].Instrs); ii++ {
				if (ii < 0) != m.blocks {
					continue
				}
				c, next := clone()
				before := record(orig, c, next)
				b := c.Blocks[bi]
				var in *Instr
				if ii >= 0 {
					in = b.Instrs[ii]
				}
				m.apply(b, in)
				skipB := b
				if in != nil {
					skipB = nil
				}
				sameExcept(t, m.name, before, record(orig, c, next), skipB, in)
			}
		}
	}
}

// TestCloneConcurrentReaders clones one shared function from several
// goroutines at once, the way the compile engine's workers clone base
// functions, and mutates every clone. Under -race this fails if Clone
// writes into the function it copies; every clone must print as the
// original did.
func TestCloneConcurrentReaders(t *testing.T) {
	f := buildLoop()
	want := f.String()
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := f.Clone()
				if got := c.String(); got != want {
					errs <- got
					return
				}
				c.Number()
				c.Blocks[0].Instrs = append(c.Blocks[0].Instrs[:0], &Instr{Op: OpRet, Args: []*Value{c.Blocks[0].Params[0]}})
			}
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Fatalf("concurrent clone printed\n%s\nwant\n%s", got, want)
	}
	if f.String() != want {
		t.Fatal("cloning and mutating the clones changed the original")
	}
}

// TestCloneNumberedAndStaleSourcesAgree clones a function through each of
// Clone's lookups: a built function has no numbering (maps), a fresh clone
// is born numbered (numbers), and an edited clone's numbering is stale
// (maps again). Every copy must print as its source does.
func TestCloneNumberedAndStaleSourcesAgree(t *testing.T) {
	built := buildLoop()
	fresh := built.Clone()
	edited := built.Clone()
	// Reordering blocks leaves every number stale.
	edited.Blocks[1], edited.Blocks[3] = edited.Blocks[3], edited.Blocks[1]
	for _, src := range []*Function{built, fresh, edited} {
		c := src.Clone()
		if err := c.Verify(); err != nil {
			t.Fatalf("clone does not verify: %v", err)
		}
		if c.String() != src.String() {
			t.Fatalf("clone prints\n%s\nsource\n%s", c, src)
		}
		if !numberingCurrent(c) {
			t.Fatal("a clone is not born numbered")
		}
	}
	if numberingCurrent(built) || numberingCurrent(edited) {
		t.Fatal("built and edited functions should have stale numbers")
	}
}

// numberingCurrent reports whether f's numbers are what Number would give.
func numberingCurrent(f *Function) bool {
	n := 0
	for i, b := range f.Blocks {
		if b.Num() != i {
			return false
		}
		for _, p := range b.Params {
			if p.Num() != n {
				return false
			}
			n++
		}
		for _, in := range b.Instrs {
			if in.Result != nil {
				if in.Result.Num() != n {
					return false
				}
				n++
			}
		}
	}
	return true
}

// callChain builds a function with calls whose trails are set, so that
// every slab Clone carves is non-empty.
func callChain() *Function {
	b := NewFunction("chain", 2, false)
	x, y := b.Param(0), b.Param(1)
	loop := b.Block("loop", 1)
	done := b.Block("done", 0)
	b.Br(loop, x)
	b.SetBlock(loop)
	i := loop.Params[0]
	r := b.Call("g", i, y)
	b.CondBr(r, loop, []*Value{r}, done, nil)
	b.SetBlock(done)
	b.Ret(b.Call("h", i))
	for _, blk := range b.Fn.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == OpCall {
				in.Site, in.Trail = 5, []int{1, 2, 3}
			}
		}
	}
	return b.Fn
}

// carved returns a check per piece of memory the clone f was carved from:
// the Function, every block, instruction and value, and every list they
// own. Each check reports whether its piece reads zero.
func carved(f *Function) []func() bool {
	zero := func(v any) func() bool {
		rv := reflect.ValueOf(v)
		return func() bool {
			if rv.Kind() == reflect.Pointer {
				return rv.Elem().IsZero()
			}
			for i := 0; i < rv.Len(); i++ {
				if !rv.Index(i).IsZero() {
					return false
				}
			}
			return true
		}
	}
	checks := []func() bool{zero(f), zero(f.Blocks)}
	for _, b := range f.Blocks {
		checks = append(checks, zero(b), zero(b.Params), zero(b.Instrs))
		for _, p := range b.Params {
			checks = append(checks, zero(p))
		}
		for _, in := range b.Instrs {
			checks = append(checks, zero(in), zero(in.Args), zero(in.Succs), zero(in.Trail))
			if in.Result != nil {
				checks = append(checks, zero(in.Result))
			}
			for _, sc := range in.Succs {
				checks = append(checks, zero(sc.Args))
			}
		}
	}
	return checks
}

// TestArenaReleaseZeroesEverySlot clones functions of every shape Clone
// handles (numbered, stale, with calls and trails) into one arena, enough
// to need several slabs, and requires every slot handed out to read zero
// after Release, in the round that grows the arena and in one that reuses
// it. A clone of a numbered function into a warm arena allocates nothing.
func TestArenaReleaseZeroesEverySlot(t *testing.T) {
	stale := buildLoop().Clone()
	stale.Blocks[1], stale.Blocks[3] = stale.Blocks[3], stale.Blocks[1]
	srcs := []*Function{buildLoop(), buildLoop().Clone(), stale, callChain(), callChain().Clone()}
	var a Arena
	for round := 0; round < 2; round++ {
		var checks []func() bool
		for i := 0; i < 40; i++ {
			src := srcs[i%len(srcs)]
			c := src.CloneIn(&a)
			if c.String() != src.String() {
				t.Fatalf("arena clone prints\n%s\nsource\n%s", c, src)
			}
			checks = append(checks, carved(c)...)
		}
		a.Release()
		for i, zero := range checks {
			if !zero() {
				t.Fatalf("round %d: carved piece %d is not zero after Release", round, i)
			}
		}
		if !allNil(a.olds[:cap(a.olds)]) {
			t.Fatal("Release left Clone's value index filled")
		}
	}
	for _, src := range srcs {
		if !numberingCurrent(src) {
			continue // indexed through maps, which the arena does not keep
		}
		if n := testing.AllocsPerRun(20, func() { src.CloneIn(&a); a.Release() }); n != 0 {
			t.Fatalf("clone of %s into a warm arena allocates %.0f times", src.Name, n)
		}
	}
}

func allNil(vs []*Value) bool {
	for _, v := range vs {
		if v != nil {
			return false
		}
	}
	return true
}
