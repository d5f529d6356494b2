package mat

import "fmt"

// Precision selects the element type of a Packed weight snapshot. Training
// and every mutable Matrix stay float64 — precision is a property of the
// immutable serving-side snapshot only, chosen once at pack time, so the
// reduced-precision formats never leak into gradients, optimizer state, or
// checkpoints.
type Precision uint8

const (
	// PrecFloat64 is the full-precision snapshot: a plain row-major copy of
	// the source matrix (the zero value, so existing Pack callers and
	// default-constructed configs keep today's behaviour bit-for-bit).
	PrecFloat64 Precision = iota
	// PrecFloat32 stores the snapshot as row-major float32 panels: half the
	// memory bandwidth of float64, with products accumulated in float32 and
	// widened back to the float64 destination in the epilogue.
	PrecFloat32
	// PrecInt8 stores per-output-channel symmetric int8 weights plus a
	// float32 scale row (one scale per destination column): about an eighth
	// of float64's resident bytes. It is a storage format, not a way of
	// computing: each product dequantizes the weights to float32 scratch and
	// runs the float32 kernel, activations and accumulators included.
	PrecInt8

	// numPrecisions bounds the enum for Valid.
	numPrecisions
)

// String returns the flag-level spelling ("float64", "float32", "int8").
func (p Precision) String() string {
	switch p {
	case PrecFloat64:
		return "float64"
	case PrecFloat32:
		return "float32"
	case PrecInt8:
		return "int8"
	default:
		return fmt.Sprintf("Precision(%d)", uint8(p))
	}
}

// ParsePrecision maps the flag-level spelling back to a Precision. The empty
// string selects the float64 default, matching an unset -precision flag.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float64":
		return PrecFloat64, nil
	case "float32":
		return PrecFloat32, nil
	case "int8":
		return PrecInt8, nil
	default:
		return 0, fmt.Errorf("mat: unknown precision %q (known: float64, float32, int8)", s)
	}
}

// Valid reports whether p is one of the defined precisions.
func (p Precision) Valid() bool { return p < numPrecisions }
