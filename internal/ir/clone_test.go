package ir

import (
	"fmt"
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
// of the clone and of the original, to be left as it was.
func TestCloneSlabsDoNotAlias(t *testing.T) {
	// A built function is cloned through maps, a clone through its numbers.
	for _, orig := range []*Function{buildLoop(), buildLoop().Clone()} {
		cloneSlabsDoNotAlias(t, orig)
	}
}

func cloneSlabsDoNotAlias(t *testing.T, orig *Function) {
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
				c := orig.Clone()
				before := record(orig, c)
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
				sameExcept(t, m.name, before, record(orig, c), skipB, in)
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
