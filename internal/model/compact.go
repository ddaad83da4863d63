package model

import "math"

// Tiered decode-state compression (DESIGN.md decision 14). A budgeted
// prefix-state arena is capacity-bound by resident bytes, not by the search
// frontier: every float64 K/V row it keeps full-precision is a row it cannot
// keep at all for some other prefix. The contracts here let a state demote
// itself into a fraction of the bytes — packed float32 or 2-byte
// half-precision buffers, or just its token context — and promote back when
// a traversal needs it again.
//
// The correctness rule is strict: the system's byte-identity gates (every
// engine's result stream, compression on vs off) must hold under the default
// tier. A CompactState therefore distinguishes exact re-expansion (the
// packed form reproduces the original rows bit for bit, verified at Compact
// time) from approximate re-expansion: Expand reports ok=false whenever the
// round trip would not be exact, and callers promote by recomputing via
// Prefill instead — states are pure caches, so the fallback costs time,
// never correctness. The aggressive tier trades that guarantee away
// explicitly (Expand always succeeds, rows are half-precision
// approximations) and is opt-in, gated by the §4 accuracy harness
// (internal/experiments RunKVAccuracy).

// CompressTier selects how a Compactor packs its rows.
type CompressTier int

const (
	// CompressNone disables demotion: states stay full-precision.
	CompressNone CompressTier = iota
	// CompressLossless is the byte-identity-safe tier: rows whose values all
	// survive the float64→float32 round trip pack into contiguous float32
	// buffers and re-expand exactly; any other state compacts to its token
	// context alone (maximum compression) and promotes by recompute.
	CompressLossless
	// CompressAggressive packs rows into 2-byte half-precision buffers that
	// always re-expand (approximately). Logits computed from promoted rows
	// may differ from the full path; opt-in only.
	CompressAggressive
)

// String names the tier for knobs, stats, and plan rendering.
func (t CompressTier) String() string {
	switch t {
	case CompressNone:
		return "off"
	case CompressLossless:
		return "lossless"
	case CompressAggressive:
		return "aggressive"
	default:
		return "unknown"
	}
}

// CompactState is a demoted decode state. It still satisfies DecodeState —
// Len, Context, and SizeBytes work, and passing one to ExtendBatch is always
// correct (models recompute foreign states via Prefill internally) — but it
// carries no reusable full-precision rows until expanded or recomputed.
type CompactState interface {
	DecodeState
	// Expand reconstructs a full-precision decode state from the packed
	// buffers. ok=false means the compact form cannot reproduce the original
	// bits (a lossless-tier state whose values were not float32-exact);
	// callers then promote by recomputing the context via Prefill.
	Expand() (DecodeState, bool)
	// Tier reports the compression tier that produced this state.
	Tier() CompressTier
}

// Inexact is implemented by decode states that can carry approximate rows: a
// state re-expanded by the aggressive tier reports true, and so does every
// state extended from it. Rows scored from such a state are near the model's,
// not the model's, so a logit cache must never publish them under the exact
// context's key.
type Inexact interface {
	Approximate() bool
}

// Exact reports whether rows scored from st are the model's own.
func Exact(st DecodeState) bool {
	in, ok := st.(Inexact)
	return !ok || !in.Approximate()
}

// Compactor is implemented by decode states that can demote themselves.
type Compactor interface {
	DecodeState
	// Compact packs the state for tier. ok=false means the state declines —
	// CompressNone, an already-compact state, or a state whose rows cannot
	// be detached from shared storage (the transformer's anchored root) —
	// and the caller keeps the original.
	Compact(tier CompressTier) (CompactState, bool)
}

// TokenCompact is the universal compact form: any decode state can demote
// to its token context alone, and promotion recomputes via Prefill. It is
// byte-identity-safe under every tier (the recompute IS the reference path)
// and is what a budgeted arena falls back to when a state's packed form
// would not actually shrink its resident charge — e.g. a deep chain node
// whose exclusive bytes are one row but whose standalone packed buffers
// cover the whole prefix.
type TokenCompact struct {
	Toks []Token
	T    CompressTier
}

// Len implements DecodeState.
func (c *TokenCompact) Len() int { return len(c.Toks) }

// Context implements DecodeState.
func (c *TokenCompact) Context() []Token { return c.Toks }

// SizeBytes implements DecodeState.
func (c *TokenCompact) SizeBytes() int64 { return int64(len(c.Toks))*8 + 48 }

// Expand implements CompactState: never exact — callers recompute.
func (c *TokenCompact) Expand() (DecodeState, bool) { return nil, false }

// Tier implements CompactState.
func (c *TokenCompact) Tier() CompressTier { return c.T }

// f32Exact reports whether v survives the float64→float32 round trip bit
// for bit — the bookkeeping bit behind the lossless tier's exact
// re-expansion guarantee.
func f32Exact(v float64) bool {
	return float64(float32(v)) == v
}

// Half-precision codec for the aggressive tier: IEEE 754 binary16 with
// round-to-nearest-even, encoded from the float32 rounding of the value.
// Go has no native float16, so the conversions are done on the bit patterns.

// packHalf converts v to its nearest half-precision bit pattern.
func packHalf(v float64) uint16 {
	b := math.Float32bits(float32(v))
	sign := uint16(b>>16) & 0x8000
	exp := int(b>>23) & 0xff
	mant := b & 0x007fffff
	switch {
	case exp == 0xff: // inf or nan
		if mant != 0 {
			return sign | 0x7e00 // quiet NaN, payload dropped
		}
		return sign | 0x7c00
	default:
		e := exp - 127 + 15
		if e >= 0x1f {
			return sign | 0x7c00 // overflow: ±inf
		}
		if e <= 0 {
			if e < -10 {
				return sign // underflow: ±0
			}
			// Subnormal half: shift the (implicit-1) mantissa into place.
			mant |= 0x00800000
			shift := uint(14 - e)
			h := uint16(mant >> shift)
			rem := mant & ((1 << shift) - 1)
			half := uint32(1) << (shift - 1)
			if rem > half || (rem == half && h&1 == 1) {
				h++
			}
			return sign | h
		}
		h := sign | uint16(e)<<10 | uint16(mant>>13)
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && h&1 == 1) {
			h++ // carry may roll into the exponent (and to inf): correct rounding
		}
		return h
	}
}

// unpackHalf decodes a half-precision bit pattern to float64 exactly (every
// binary16 value is exactly representable in float64).
func unpackHalf(h uint16) float64 {
	neg := h&0x8000 != 0
	exp := int(h>>10) & 0x1f
	mant := int(h & 0x3ff)
	var v float64
	switch {
	case exp == 0x1f:
		if mant != 0 {
			v = math.NaN()
		} else {
			v = math.Inf(1)
		}
	case exp == 0:
		v = math.Ldexp(float64(mant), -24) // subnormal (or zero)
	default:
		v = math.Ldexp(1+float64(mant)/1024, exp-15)
	}
	if neg {
		return -v
	}
	return v
}
