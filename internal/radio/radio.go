// Package radio models indoor Wi-Fi signal propagation: a log-distance path
// loss model with material-dependent exponents, a static log-normal shadowing
// field (fixed per AP/location pair, shared between offline and online
// phases), and temporal fading noise redrawn for every sample. It substitutes
// for the paper's physical testbed — the real dataset was not released — while
// preserving the statistical structure RSS fingerprinting depends on:
// distance-monotone mean signal strength, location-correlated shadowing, and
// per-visit noise.
package radio

import (
	"fmt"
	"math"
	"math/rand"
)

// RSSFloor is the weakest representable RSS in dBm; APs whose signal falls
// below a device's detection threshold report this value (paper §III: RSS
// ranges from −100 dBm weak to 0 dBm strong).
const RSSFloor = -100.0

// RSSCeiling is the strongest representable RSS in dBm.
const RSSCeiling = 0.0

// Point is a 2-D position in metres.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance between two points in metres.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// AP is one Wi-Fi access point.
type AP struct {
	ID      int
	Pos     Point
	TxPower float64 // transmit power in dBm
	Channel int     // 802.11 channel, used by spoofing-attack bookkeeping
	MAC     string  // synthetic MAC address, used by spoofing-attack bookkeeping
}

// NewAP creates an AP with a deterministic synthetic MAC derived from its ID.
func NewAP(id int, pos Point, txPower float64, channel int) AP {
	return AP{
		ID:      id,
		Pos:     pos,
		TxPower: txPower,
		Channel: channel,
		MAC:     fmt.Sprintf("02:ca:11:0c:%02x:%02x", (id>>8)&0xff, id&0xff),
	}
}

// PropagationModel captures how one building attenuates Wi-Fi signals.
type PropagationModel struct {
	// PathLossExponent n in the log-distance model; ≈2 for open space, 3+
	// for cluttered or metallic interiors.
	PathLossExponent float64
	// RefLoss is the path loss at the 1 m reference distance, in dB.
	RefLoss float64
	// ShadowSigma is the standard deviation (dB) of the static log-normal
	// shadowing drawn once per AP/location pair.
	ShadowSigma float64
	// FadingSigma is the standard deviation (dB) of the temporal noise
	// redrawn for every fingerprint capture (people moving, equipment, ...).
	FadingSigma float64
	// WallEveryM and WallLossDB model interior walls: every WallEveryM
	// metres of propagation distance crosses one wall costing WallLossDB.
	// Zero disables the wall term. Walls are what push distant APs below
	// device detection thresholds, producing the realistic "AP not heard"
	// zeros of indoor fingerprints.
	WallEveryM float64
	WallLossDB float64
}

// MeanRSS returns the mean received signal strength in dBm at distance d
// metres from an AP transmitting at txPower dBm:
// RSS = P_tx − PL(d0) − 10·n·log10(d/d0) − walls(d)·WallLossDB, d0 = 1 m.
func (m PropagationModel) MeanRSS(txPower, d float64) float64 {
	if d < 1 {
		d = 1 // inside the reference distance the model saturates
	}
	rss := txPower - m.RefLoss - 10*m.PathLossExponent*math.Log10(d)
	if m.WallEveryM > 0 && m.WallLossDB > 0 {
		rss -= math.Floor(d/m.WallEveryM) * m.WallLossDB
	}
	return clampRSS(rss)
}

// ShadowField holds the static shadowing offset for every (location, AP)
// pair of a building. The same field applies in the offline and online
// phases, which is what makes fingerprinting work at all.
type ShadowField struct {
	offsets [][]float64 // [location][ap]
}

// NewShadowField draws a shadowing field for nLocs locations and nAPs APs.
func NewShadowField(nLocs, nAPs int, sigma float64, rng *rand.Rand) *ShadowField {
	f := &ShadowField{offsets: make([][]float64, nLocs)}
	for i := range f.offsets {
		row := make([]float64, nAPs)
		for j := range row {
			row[j] = rng.NormFloat64() * sigma
		}
		f.offsets[i] = row
	}
	return f
}

// Offset returns the static shadowing offset in dB for location loc and AP ap.
func (f *ShadowField) Offset(loc, ap int) float64 { return f.offsets[loc][ap] }

// SampleRSS returns one noisy RSS capture in dBm: the distance-dependent mean,
// plus the static shadowing offset, plus fresh temporal fading noise.
func (m PropagationModel) SampleRSS(ap AP, pos Point, shadow float64, rng *rand.Rand) float64 {
	mean := m.MeanRSS(ap.TxPower, ap.Pos.Distance(pos))
	return clampRSS(mean + shadow + rng.NormFloat64()*m.FadingSigma)
}

func clampRSS(v float64) float64 {
	if v < RSSFloor {
		return RSSFloor
	}
	if v > RSSCeiling {
		return RSSCeiling
	}
	return v
}

// Normalize maps a dBm value in [RSSFloor, RSSCeiling] to [0, 1], the input
// domain of every ML model in this repository (and of the ε values in the
// attack formulation: ε=0.1 is 10 dB of perturbation).
func Normalize(dbm float64) float64 {
	return (clampRSS(dbm) - RSSFloor) / (RSSCeiling - RSSFloor)
}

// CheckNormalized reports the first value of a normalised fingerprint outside
// [0, 1], the range Normalize maps to and every attack projects into; NaN is
// outside too. A model answers such a row with a class that means nothing,
// and differently at each serving precision.
func CheckNormalized(rss []float64) error {
	for i, v := range rss {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("RSS value %g at AP %d is outside the normalised range [0, 1]", v, i)
		}
	}
	return nil
}

// Denormalize maps a [0,1] value back to dBm.
func Denormalize(v float64) float64 {
	return clampRSS(v*(RSSCeiling-RSSFloor) + RSSFloor)
}
