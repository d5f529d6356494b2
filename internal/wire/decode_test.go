package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// refQuery and refBatch are the plain encoding/json shapes the wire types
// stand in for. The differential tests decode every body three ways — fast
// decoder, json.Unmarshal into the wire types (the punt fallback), and
// json.Unmarshal into these — so neither the fast path nor the custom
// unmarshalers can drift from what a struct of stock types would read.
type refQuery struct {
	RSS      []float64 `json:"rss"`
	Floor    *int      `json:"floor"`
	Building *int      `json:"building"`
	Backend  string    `json:"backend"`
}

type refBatch struct {
	Backend string     `json:"backend"`
	Queries []refQuery `json:"queries"`
}

func sameOptInt(o OptInt, p *int) bool {
	if p == nil {
		return !o.Set
	}
	return o.Set && o.V == *p
}

// diffQuery reports how got differs from the reference decode, RSS compared
// bit for bit ("" when equal).
func diffQuery(got *Query, want *refQuery) string {
	if len(got.RSS) != len(want.RSS) {
		return fmt.Sprintf("rss has %d values, json %d", len(got.RSS), len(want.RSS))
	}
	for i := range got.RSS {
		if math.Float64bits(got.RSS[i]) != math.Float64bits(want.RSS[i]) {
			return fmt.Sprintf("rss[%d] = %v (%#x), json %v (%#x)", i,
				got.RSS[i], math.Float64bits(got.RSS[i]), want.RSS[i], math.Float64bits(want.RSS[i]))
		}
	}
	if !sameOptInt(got.Floor, want.Floor) {
		return fmt.Sprintf("floor = %+v, json %v", got.Floor, want.Floor)
	}
	if !sameOptInt(got.Building, want.Building) {
		return fmt.Sprintf("building = %+v, json %v", got.Building, want.Building)
	}
	if string(got.Backend) != want.Backend {
		return fmt.Sprintf("backend = %q, json %q", got.Backend, want.Backend)
	}
	return ""
}

func diffBatch(got *Batch, want *refBatch) string {
	if string(got.Backend) != want.Backend {
		return fmt.Sprintf("batch backend = %q, json %q", got.Backend, want.Backend)
	}
	if len(got.Queries) != len(want.Queries) {
		return fmt.Sprintf("%d rows, json %d", len(got.Queries), len(want.Queries))
	}
	for i := range got.Queries {
		if d := diffQuery(&got.Queries[i], &want.Queries[i]); d != "" {
			return fmt.Sprintf("row %d: %s", i, d)
		}
	}
	return ""
}

// differential is the property the table tests and the fuzz targets share,
// for a wire type W and its stock-typed reference R: whenever the fast
// decoder accepts a body, both json decodes accept it and agree with it; and
// the json decode into W (the punt fallback) always matches the one into R.
// It returns whether the fast decoder accepted. tail is appended after the
// body in the same array: bytes that would change the answer if the decoder
// ever resliced past what it was handed.
func differential[W, R any](t *testing.T, body []byte, tail string,
	fast func([]byte, *W) bool, diff func(*W, *R) string) bool {
	t.Helper()
	body = append(append(make([]byte, 0, len(body)+len(tail)), body...), tail...)[:len(body)]

	var got, slow W
	var ref R
	ok := fast(body, &got)
	slowErr := json.Unmarshal(body, &slow)
	refErr := json.Unmarshal(body, &ref)
	if (slowErr == nil) != (refErr == nil) {
		t.Fatalf("%q: json into %T: %v; into stock types: %v", body, &slow, slowErr, refErr)
	}
	if refErr != nil {
		if ok {
			t.Fatalf("%q: fast decoder accepted a body json.Unmarshal rejects: %v", body, refErr)
		}
		return false
	}
	if d := diff(&slow, &ref); d != "" {
		t.Fatalf("%q: fallback decode: %s", body, d)
	}
	if ok {
		if d := diff(&got, &ref); d != "" {
			t.Fatalf("%q: fast decode: %s", body, d)
		}
	}
	return ok
}

func checkQuery(t *testing.T, body []byte) bool {
	t.Helper()
	return differential(t, body, `,9]}`, fastQuery, diffQuery)
}

func checkBatch(t *testing.T, body []byte) bool {
	t.Helper()
	return differential(t, body, `,{}]}`, fastBatch, diffBatch)
}

type decodeCase struct {
	name string
	body string
	fast bool // the fast decoder should accept
}

var queryCases = []decodeCase{
	{"typical", `{"rss":[-67.5,-80,-45.25],"floor":0}`, true},
	{"routed", `{"rss":[-67.5,-80]}`, true},
	{"backend known", `{"rss":[-1,-2],"backend":"knn","floor":3}`, true},
	{"backend unknown", `{"rss":[-1],"backend":"svm"}`, true},
	{"backend null", `{"backend":"knn","rss":[-1],"backend":null}`, true},
	{"negative floor", `{"rss":[-1],"floor":-2}`, true},
	{"null floor", `{"rss":[-1],"floor":null}`, true},
	{"floor then null", `{"floor":4,"rss":[-1],"floor":null}`, true},
	{"extreme ints", `{"floor":-9223372036854775808,"building":9223372036854775807}`, true},
	{"building", `{"building":3,"rss":[-1],"floor":1}`, true},
	{"scientific", `{"rss":[-6.75e1,1E-2,3.5e+2,1E+2]}`, true},
	{"zeros", `{"rss":[0,-0,0.0,-0.0,0e5,-0E-7,0.000]}`, true},
	{"exact edge", `{"rss":[9007199254740991,9007199254740992,9007199254740993,1e22,1e23,1e-22,1e-23,123456789e-31]}`, true},
	{"long mantissa", `{"rss":[-67.48291015625,0.1234567890123456789,12345678901234567890123,3.141592653589793238462643383279,0.30000000000000004]}`, true},
	{"halfway", `{"rss":[1.00000000000000011102230246251565404236316680908203125,1.00000000000000011102230246251565404236316680908203124,1.00000000000000011102230246251565404236316680908203126]}`, true},
	{"subnormal and tiny", `{"rss":[5e-324,2.2250738585072011e-308,1e-400,4.9e-324,0.000000000000000000000000000001e10]}`, true},
	{"largest", `{"rss":[1.7976931348623157e308,17976931348623157e292]}`, true},
	{"huge zero exponent", `{"rss":[0e99999999999999999999,0.0e-99999999999999999999]}`, true},
	{"whitespace", " {\n\t\"rss\" : [ -1 , -2 ] ,\r\n \"floor\" : 1 } ", true},
	{"empty rss", `{"rss":[]}`, true},
	{"empty object", `{}`, true},
	{"unknown scalar fields", `{"rp":12,"rss":[-1],"tag":"x","ok":true,"nada":null,"f":false,"w":-1.5e3}`, true},
	{"swap body", `{"floor":1,"stage":true,"weights":"QUJD+/8="}`, true},
	{"duplicate rss last wins", `{"rss":[-1,-2],"rss":[-9]}`, true},
	{"duplicate floor last wins", `{"floor":1,"floor":2,"rss":[-1]}`, true},
	// Punts: the fallback decoder must handle these.
	{"escaped backend", `{"rss":[-1],"backend":"k\u006en"}`, false},
	{"non-ASCII backend", `{"rss":[-1],"backend":"kñn"}`, false},
	{"invalid UTF-8 backend", "{\"rss\":[-1],\"backend\":\"k\xffn\"}", false},
	{"escaped key", `{"r\u0073s":[-1]}`, false},
	{"case-folded key", `{"rss":[-1],"Floor":2}`, false},
	{"case-folded rss", `{"RSS":[-1]}`, false},
	{"kelvin-folded key", "{\"rss\":[-1],\"bac\u212aend\":\"knn\"}", false},
	{"unknown object field", `{"rss":[-1],"meta":{"a":1}}`, false},
	{"unknown array field", `{"rss":[-1],"tags":["a"]}`, false},
	{"unknown field out of float range", `{"rss":[-1],"big":1e999}`, false},
	{"null rss", `{"rss":null}`, false},
	{"null body", `null`, false},
	// Rejected by both: the fallback writes the 400.
	{"huge floor overflows int", `{"rss":[-1],"floor":99999999999999999999}`, false},
	{"floor wraps past uint64", `{"rss":[-1],"floor":18446744073709551620}`, false},
	{"floor one past int", `{"floor":9223372036854775808}`, false},
	{"string building", `{"rss":[-1],"building":"3"}`, false},
	{"control character in string", "{\"rss\":[-1],\"backend\":\"k\nn\"}", false},
	{"control character in skipped string", "{\"rss\":[-1],\"tag\":\"a\tb\"}", false},
}

var batchCases = []decodeCase{
	{"two rows", `{"queries":[{"rss":[-1,-2]},{"rss":[-3,-4],"floor":1}]}`, true},
	{"batch backend", `{"backend":"knn","queries":[{"rss":[-1]}]}`, true},
	{"row overrides", `{"backend":"knn","queries":[{"rss":[-1],"backend":"gbdt","floor":2},{"rss":[-2]},{"backend":"bayes","rss":[-3],"floor":null}]}`, true},
	{"queries first", `{"queries":[{"rss":[-1]}],"backend":"bayes"}`, true},
	{"null queries", `{"queries":null}`, true},
	{"empty queries", `{"queries":[]}`, true},
	{"no queries", `{"backend":"knn"}`, true},
	{"empty object", `{}`, true},
	{"empty row", `{"queries":[{}]}`, true},
	{"coalesced rows carry building", `{"queries":[{"rss":[-1],"building":1},{"building":1,"floor":0,"rss":[-2]}]}`, true},
	{"unknown scalar fields", `{"building":1,"trace":"abc","queries":[{"rss":[-1],"id":7}],"n":1}`, true},
	{"whitespace", "\n{ \"queries\" : [ { \"rss\" : [ 1 ] } , { } ] }\n", true},
	{"exact and long numbers", `{"queries":[{"rss":[-0,1E+2,0.1,-67.48291015625,1e23]}]}`, true},
	// Punts.
	{"punt mid-array", `{"queries":[{"rss":[1,2],"floor":3,"backend":"knn"},{"rss":[4],"backend":"k\u006en"},{"rss":[5]}]}`, false},
	{"null row", `{"queries":[{"rss":[1]},null]}`, false},
	{"repeated queries", `{"queries":[{"rss":[1],"floor":3}],"queries":[{"rss":[2]}]}`, false},
	{"case-folded queries", `{"Queries":[{"rss":[1]}]}`, false},
	{"case-folded backend", `{"BACKEND":"knn","queries":[]}`, false},
	{"nested unknown in row", `{"queries":[{"rss":[1],"meta":{}}]}`, false},
	{"nested unknown at top", `{"opts":[1],"queries":[{"rss":[1]}]}`, false},
	{"null body", `null`, false},
	// Rejected by both.
	{"queries not an array", `{"queries":{"rss":[1]}}`, false},
	{"row not an object", `{"queries":[[1,2]]}`, false},
	{"trailing comma", `{"queries":[{"rss":[1]},]}`, false},
	{"unterminated", `{"queries":[{"rss":[1]}`, false},
	{"trailing bytes", `{"queries":[]} x`, false},
}

// notJSONNumbers are numerals strconv.ParseFloat takes and the JSON grammar
// does not (the parent's fast path accepted all six), plus one in the
// grammar but outside float64.
var notJSONNumbers = []string{"01", ".5", "1.", "-.5", "1.e3", "-01.5", "1e999"}

// TestParseLocalizeFastMatchesJSON runs every wire form through the fast
// decoder and encoding/json. For bodies the fast path accepts, the decodes
// must agree bit for bit; for bodies it punts on, json.Unmarshal still
// produces the documented result (the fallback), so a punt is never
// user-visible.
func TestParseLocalizeFastMatchesJSON(t *testing.T) {
	for _, tc := range queryCases {
		t.Run("query/"+tc.name, func(t *testing.T) {
			if ok := checkQuery(t, []byte(tc.body)); ok != tc.fast {
				t.Fatalf("fast decoder accepted=%v, want %v", ok, tc.fast)
			}
		})
	}
	for _, tc := range batchCases {
		t.Run("batch/"+tc.name, func(t *testing.T) {
			if ok := checkBatch(t, []byte(tc.body)); ok != tc.fast {
				t.Fatalf("fast decoder accepted=%v, want %v", ok, tc.fast)
			}
		})
	}
}

// Malformed bodies must be rejected by the fast decoder (so the fallback
// produces the 400), never half-accepted.
func TestParseLocalizeFastRejectsMalformed(t *testing.T) {
	bad := []string{
		``, `null`, `[]`, `42`, `"x"`,
		`{"rss":[-1]`, `{"rss":[-1],}`, `{"rss":[-1,]}`, `{"rss":[-1]}}`,
		`{"rss":[-1]} trailing`, `{"rss":["-1"]}`, `{"rss":-1}`,
		`{rss:[-1]}`, `{"rss" [-1]}`, `{"floor":}`, `{"floor":true}`,
		`{"floor":--1}`, `{"floor":1.5,"rss":[-1]}`, // json also rejects 1.5 into int
		`{"floor":01}`, `{"floor":-}`, `{"floor":+1}`, `{"rss":[+1]}`, `{"rss":[1e]}`,
		`{"rss":[1e+]}`, `{"rss":[-]}`, `{"rss":[1.5.2]}`, `{"rss":[0x10]}`, `{"rss":[1_0]}`,
		`{"rss":[Inf]}`, `{"rss":[NaN]}`, `{"tag":truex}`, `{"tag":nul}`,
	}
	for _, body := range bad {
		var q Query
		if fastQuery([]byte(body), &q) {
			t.Errorf("fast decoder accepted malformed %q", body)
		}
	}
	for _, num := range notJSONNumbers {
		for _, body := range []string{
			`{"rss":[` + num + `]}`,
			`{"rss":[-1,` + num + `,-2],"floor":0}`,
		} {
			if checkQuery(t, []byte(body)) {
				t.Errorf("fast decoder accepted %q", body)
			}
			var q Query
			if _, err := DecodeQuery([]byte(body), &q); err == nil {
				t.Errorf("DecodeQuery accepted %q", body)
			}
			row := `{"queries":[{"rss":[-1]},` + body + `]}`
			if checkBatch(t, []byte(row)) {
				t.Errorf("fast decoder accepted %q", row)
			}
			var b Batch
			if _, err := DecodeBatch([]byte(row), &b); err == nil {
				t.Errorf("DecodeBatch accepted %q", row)
			}
		}
	}
}

// TestNumberMatchesParseFloat sweeps the number scanner over generated
// numerals of every shape the exact path and its boundary take: mantissas
// around 2^53, exponents around ±22, leading fraction zeros, long tails.
func TestNumberMatchesParseFloat(t *testing.T) {
	mantissas := []string{
		"0", "1", "7", "10", "99", "675", "8025", "123456789", "4503599627370496",
		"9007199254740991", "9007199254740992", "9007199254740993", "9999999999999999",
		"12345678901234567", "1234567890123456789", "12345678901234567890", "18446744073709551615",
		"18446744073709551616", "99999999999999999999999",
	}
	var nums []string
	for _, m := range mantissas {
		for point := 0; point <= len(m); point += 1 + len(m)/5 {
			s := m[:point] + "." + m[point:]
			s = strings.TrimSuffix(s, ".")
			if strings.HasPrefix(s, ".") {
				s = "0" + s
			}
			if len(s) > 1 && s[0] == '0' && s[1] != '.' {
				continue // leading zero
			}
			nums = append(nums, s, "-"+s, "0.000"+m)
			for _, e := range []int{-330, -308, -40, -23, -22, -21, -5, -1, 0, 1, 5, 15, 21, 22, 23, 37, 38, 292, 308} {
				nums = append(nums, fmt.Sprintf("%se%d", s, e), fmt.Sprintf("-%sE%+d", s, e))
			}
		}
	}
	for _, num := range nums {
		want, err := parseFloatRef(num)
		d := decoder{b: []byte(num + ",")}
		got, ok := d.number()
		if ok != (err == nil) {
			t.Fatalf("number(%q) ok=%v, ParseFloat err=%v", num, ok, err)
		}
		if !ok {
			continue
		}
		if d.i != len(num) {
			t.Fatalf("number(%q) consumed %d bytes", num, d.i)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("number(%q) = %v (%#x), ParseFloat %v (%#x)", num, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// parseFloatRef is what encoding/json computes for a number token bound for
// a float64.
func parseFloatRef(num string) (float64, error) {
	var v float64
	err := json.Unmarshal([]byte(num), &v)
	return v, err
}

// TestBatchResetNoAliasing: decoding a second, smaller batch into a reused
// Batch must not inherit floors, backends, or RSS tails from the slots the
// first batch left behind — through the fast decoder, and through a fallback
// that starts after the fast decoder filled rows and punted mid-array.
func TestBatchResetNoAliasing(t *testing.T) {
	first := `{"backend":"knn","queries":[
		{"rss":[1,2,3],"floor":4,"backend":"gbdt","building":7},
		{"rss":[5,6,7],"floor":2},
		{"rss":[8,9,10],"floor":1}]}`
	for _, tc := range []struct {
		name, second string
		punts        bool
	}{
		{"fast", `{"queries":[{"rss":[40,50]},{"rss":[60]}]}`, false},
		{"punt mid-array", `{"queries":[{"rss":[40,50]},{"rss":[60],"tag":"\u0041"}]}`, true},
		{"punt after a filled row", `{"queries":[{"rss":[40,50]},{"rss":[60]}],"meta":{}}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b Batch
			if punted, err := DecodeBatch([]byte(first), &b); err != nil || punted {
				t.Fatalf("first decode: punted=%v err=%v", punted, err)
			}
			if len(b.Queries) != 3 || !b.Queries[0].Floor.Set || string(b.Queries[0].Backend) != "gbdt" {
				t.Fatalf("first decode = %+v", b)
			}
			punted, err := DecodeBatch([]byte(tc.second), &b)
			if err != nil || punted != tc.punts {
				t.Fatalf("second decode: punted=%v err=%v, want punted=%v", punted, err, tc.punts)
			}
			if len(b.Backend) != 0 {
				t.Fatalf("batch backend leaked: %q", b.Backend)
			}
			if len(b.Queries) != 2 {
				t.Fatalf("second decode has %d queries", len(b.Queries))
			}
			for i, q := range b.Queries {
				if q.Floor.Set || q.Building.Set {
					t.Fatalf("row %d inherited floor %+v / building %+v from the previous batch", i, q.Floor, q.Building)
				}
				if len(q.Backend) != 0 {
					t.Fatalf("row %d inherited backend %q", i, q.Backend)
				}
			}
			if got := b.Queries[0].RSS; len(got) != 2 || got[0] != 40 || got[1] != 50 {
				t.Fatalf("row 0 rss = %v", got)
			}
			if got := b.Queries[1].RSS; len(got) != 1 || got[0] != 60 {
				t.Fatalf("row 1 rss = %v (stale tail?)", got)
			}
		})
	}
}

// TestFastDecodeAllocs: the fast decoders run allocation-free once the
// target has grown to the body's shape.
func TestFastDecodeAllocs(t *testing.T) {
	var body bytes.Buffer
	body.WriteString(`{"backend":"knn","queries":[`)
	for i := 0; i < 16; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(`{"rss":[-67.5,-80,-45.25,-71.48291015625,1e-7],"floor":1,"building":2,"backend":"bayes"}`)
	}
	body.WriteString(`]}`)
	var b Batch
	if n := testing.AllocsPerRun(50, func() {
		b.Reset()
		if !fastBatch(body.Bytes(), &b) {
			t.Fatal("fast decoder punted")
		}
	}); n != 0 {
		t.Fatalf("fastBatch allocates %.1f times per body", n)
	}
	// An unknown scalar field is skipped in place (after foldsTo rules out a
	// case-folded known key).
	row := []byte(`{"rss":[-67.5,-80,-45.25,-71.48291015625,1e-7],"id":7,"floor":1,"backend":"bayes"}`)
	var q Query
	if n := testing.AllocsPerRun(50, func() {
		q.Reset()
		if !fastQuery(row, &q) {
			t.Fatal("fast decoder punted")
		}
	}); n != 0 {
		t.Fatalf("fastQuery allocates %.1f times per body", n)
	}
	// The encoding/json fallback decodes the optional ints through
	// OptInt.UnmarshalJSON, which itself allocates nothing.
	var o OptInt
	if n := testing.AllocsPerRun(50, func() {
		if o.UnmarshalJSON([]byte("12")) != nil || !o.Set || o.V != 12 {
			t.Fatal("OptInt.UnmarshalJSON(12) failed")
		}
	}); n != 0 {
		t.Fatalf("OptInt.UnmarshalJSON allocates %.1f times per value", n)
	}
}

// FuzzDecodeQuery: whenever the fast decoder accepts a body, json.Unmarshal
// accepts it and agrees bit for bit; it never panics and never reads past the
// body. Seeded from the table above.
func FuzzDecodeQuery(f *testing.F) {
	for _, tc := range queryCases {
		f.Add([]byte(tc.body))
	}
	for _, num := range notJSONNumbers {
		f.Add([]byte(`{"rss":[` + num + `]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkQuery(t, body)
	})
}

// FuzzDecodeBatch is FuzzDecodeQuery for the batch grammar.
func FuzzDecodeBatch(f *testing.F) {
	for _, tc := range batchCases {
		f.Add([]byte(tc.body))
	}
	for _, tc := range queryCases {
		f.Add([]byte(`{"queries":[` + tc.body + `,` + tc.body + `]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBatch(t, body)
	})
}

// BenchmarkDecodeBatch decodes a 64-row × 156-AP batch body (the shape of the
// repo benchmark's batch_direct requests) through the fast decoder and
// through the encoding/json fallback it replaces.
func BenchmarkDecodeBatch(b *testing.B) {
	var body bytes.Buffer
	body.WriteString(`{"queries":[`)
	for r := 0; r < 64; r++ {
		if r > 0 {
			body.WriteByte(',')
		}
		body.WriteString(`{"rss":[`)
		for a := 0; a < 156; a++ {
			if a > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, "%v", -100+float64((r*131+a*37)%1400)/20)
		}
		body.WriteString(`]}`)
	}
	body.WriteString(`]}`)
	var dst Batch
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(body.Len()))
		for i := 0; i < b.N; i++ {
			if punted, err := DecodeBatch(body.Bytes(), &dst); punted || err != nil {
				b.Fatalf("punted=%v err=%v", punted, err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(body.Len()))
		for i := 0; i < b.N; i++ {
			dst.Reset()
			if err := json.Unmarshal(body.Bytes(), &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}
