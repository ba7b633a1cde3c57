package ir

import "sort"

// This file implements structural fingerprinting: stable hashes of IR that
// stream over the in-memory structure directly, with no String() round-trip
// and no per-call allocation beyond the canonical numbering maps. The
// per-function compile cache (internal/compile, fncache.go) keys entries on
// these hashes, so what the hash includes — and deliberately excludes — is
// part of that cache's correctness argument:
//
//   - Values and blocks are referred to by canonical position (definition
//     order / block index), never by ID or name: printing artifacts like
//     value names cannot split cache entries, and two functions that differ
//     only in naming hash identically. Tests check this against the
//     printed form, Module.String, which does change under renaming.
//   - Call-site IDs and inline trails are NOT part of Function.Fingerprint:
//     site numbering is per-module, and hashing it would make structurally
//     identical helper functions in different translation units hash apart.
//     Clients that depend on site identity (the compile cache's closure
//     keys, Module.Fingerprint) canonicalize or append sites themselves.
//   - Callee and global names ARE hashed: they are the linkage that decides
//     which function a call resolves to during inlining.

// Two independent 64-bit multiply-xor lanes; lane a is standard FNV-1a.
const (
	fnvOffset  = 14695981039346656037
	fnvPrime   = 1099511628211
	lane2Seed  = 0x2545F4914F6CDD1D
	lane2Prime = 0x9E3779B97F4A7C15
)

// Hasher is a streamed structural-hash accumulator: two independently
// seeded 64-bit multiply-xor lanes fed byte by byte. Sum64 returns the
// first lane (finalized); Sum128 returns both, for clients whose key space
// is large enough that 64-bit birthday collisions would matter (the
// per-function compile cache). The zero Hasher is not ready for use; start
// with NewHasher.
type Hasher struct{ a, b uint64 }

// NewHasher returns a ready-to-use Hasher.
func NewHasher() Hasher { return Hasher{a: fnvOffset, b: lane2Seed} }

// Byte streams one byte.
func (h *Hasher) Byte(x byte) {
	h.a = (h.a ^ uint64(x)) * fnvPrime
	h.b = (h.b ^ uint64(x)) * lane2Prime
}

// Uint64 streams a 64-bit word (little-endian).
func (h *Hasher) Uint64(x uint64) {
	for i := 0; i < 8; i++ {
		h.Byte(byte(x))
		x >>= 8
	}
}

// Int streams an int (sign-extended to 64 bits).
func (h *Hasher) Int(x int) { h.Uint64(uint64(int64(x))) }

// Str streams a length-prefixed string, so adjacent strings cannot alias.
func (h *Hasher) Str(s string) {
	h.Int(len(s))
	for i := 0; i < len(s); i++ {
		h.Byte(s[i])
	}
}

// mix64 is the splitmix64 finalizer; it avalanches the lane accumulators so
// structurally close inputs do not produce numerically close sums.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Sum64 returns the finalized first lane.
func (h *Hasher) Sum64() uint64 { return mix64(h.a) }

// Sum128 returns both finalized lanes.
func (h *Hasher) Sum128() (hi, lo uint64) { return mix64(h.a), mix64(h.b) }

// Fingerprint returns a stable 64-bit structural hash of the function:
// opcodes, operators, constants, callee and global names, and the CFG shape,
// with values and blocks identified by canonical position. It is invariant
// under value/block renaming and under print/parse round-trips, and — by
// design — under call-site renumbering; see the file comment for why, and
// Module.Fingerprint for the site-sensitive variant.
func (f *Function) Fingerprint() uint64 {
	h := NewHasher()
	f.hashInto(&h)
	return h.Sum64()
}

// hashInto streams the function's structure into h.
func (f *Function) hashInto(h *Hasher) {
	// Canonical value numbers: parameters then instruction results, in block
	// and instruction order. References hash to these positions.
	num := make(map[*Value]int, 32)
	n := 0
	bidx := make(map[*Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		bidx[b] = i
		for _, p := range b.Params {
			num[p] = n
			n++
		}
		for _, in := range b.Instrs {
			if in.Result != nil {
				num[in.Result] = n
				n++
			}
		}
	}
	ref := func(v *Value) {
		if i, ok := num[v]; ok {
			h.Int(i)
		} else {
			h.Int(-1) // undefined reference; Verify rejects these
		}
	}
	if f.Exported {
		h.Byte(1)
	} else {
		h.Byte(0)
	}
	h.Int(len(f.Blocks))
	for _, b := range f.Blocks {
		h.Int(len(b.Params))
		h.Int(len(b.Instrs))
		for _, in := range b.Instrs {
			h.Byte(byte(in.Op))
			switch in.Op {
			case OpConst:
				h.Uint64(uint64(in.Const))
			case OpBin:
				h.Byte(byte(in.BinOp))
			case OpUn:
				h.Byte(byte(in.UnOp))
			case OpCall:
				h.Str(in.Callee)
			case OpLoadG, OpStoreG:
				h.Str(in.Global)
			}
			if in.Result != nil {
				h.Byte(1)
			} else {
				h.Byte(0)
			}
			h.Int(len(in.Args))
			for _, a := range in.Args {
				ref(a)
			}
			h.Int(len(in.Succs))
			for _, s := range in.Succs {
				if i, ok := bidx[s.Dest]; ok {
					h.Int(i)
				} else {
					h.Int(-1)
				}
				h.Int(len(s.Args))
				for _, a := range s.Args {
					ref(a)
				}
			}
		}
	}
}

// Fingerprint returns a stable 64-bit structural hash of the module: the
// global set, and every function's name, structural fingerprint, and
// call-site assignment (IDs and trails, in instruction order). Two modules
// with equal fingerprints have identical structure AND identical site
// numbering, so size caches may key whole-module entries on
// (module fingerprint, inlining configuration) — the site sensitivity is
// what ties a configuration's site labels to this exact module. The hash
// streams the IR directly, never the printed form.
func (m *Module) Fingerprint() uint64 {
	h := NewHasher()
	globals := append([]string(nil), m.Globals...)
	sort.Strings(globals)
	h.Int(len(globals))
	for _, g := range globals {
		h.Str(g)
	}
	h.Int(len(m.Funcs))
	for _, f := range m.Funcs {
		h.Str(f.Name)
		f.hashInto(&h)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != OpCall {
					continue
				}
				h.Int(in.Site)
				h.Int(len(in.Trail))
				for _, t := range in.Trail {
					h.Int(t)
				}
			}
		}
	}
	return h.Sum64()
}
