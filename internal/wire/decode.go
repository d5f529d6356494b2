package wire

import (
	"encoding/json"
	"strconv"
)

// Query is the decoded form of one RSS-carrying query object
//
//	{"rss":[numbers],"floor":int,"backend":string,"building":int}
//
// — the body of /v1/localize, one row of /v1/localize/batch, and what the
// router reads off every floor-addressed body to pick a shard. It is meant to
// live on a pooled buffer: Reset before every decode, because neither decoder
// touches a field the body omits.
type Query struct {
	RSS      []float64 `json:"rss"`
	Floor    OptInt    `json:"floor"`
	Building OptInt    `json:"building"`
	Backend  Str       `json:"backend"`
}

// Reset clears every field, keeping the RSS capacity.
//
//calloc:noalloc
func (q *Query) Reset() {
	q.RSS = q.RSS[:0]
	q.Floor = OptInt{}
	q.Building = OptInt{}
	q.Backend = nil
}

// Batch is the decoded form of a /v1/localize/batch body
// {"backend":string,"queries":[query,...]}; Backend is the default of rows
// that name none.
type Batch struct {
	Backend Str     `json:"backend"`
	Queries []Query `json:"queries"`
}

// Reset clears every row up to capacity, not just length: decoding a JSON
// array into a reused slice re-fills old slots without zeroing fields the new
// element omits, so a row that skips "floor" would otherwise inherit the
// floor of whatever row sat in that slot last request.
//
//calloc:noalloc
func (b *Batch) Reset() {
	b.Backend = nil
	qs := b.Queries[:cap(b.Queries)]
	for i := range qs {
		qs[i].Reset()
	}
	b.Queries = b.Queries[:0]
}

// Str is a JSON string field decoded without allocating: the fast decoder
// leaves it a view into the body it decoded (valid for as long as that buffer
// is), the encoding/json fallback an owned copy. Absent and null leave it
// nil.
type Str []byte

// UnmarshalJSON implements json.Unmarshaler with the semantics of a plain
// string field: null is a no-op, anything but a string an error.
func (s *Str) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	var v string
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*s = Str(v)
	return nil
}

// DecodeQuery resets q and decodes body into it: through the fast decoder
// when body is inside its grammar, through encoding/json otherwise. punted
// reports that the fallback ran; err is the fallback's verdict. Every value
// either path yields is the one encoding/json yields, bit for bit.
func DecodeQuery(body []byte, q *Query) (punted bool, err error) {
	q.Reset()
	if fastQuery(body, q) {
		return false, nil
	}
	// The fast decode may have filled fields before punting.
	q.Reset()
	return true, json.Unmarshal(body, q)
}

// DecodeBatch is DecodeQuery for a batch body. A punt in the middle of the
// row array leaves no half-decoded row behind: the fallback starts from a
// batch cleared to capacity.
func DecodeBatch(body []byte, b *Batch) (punted bool, err error) {
	b.Reset()
	if fastBatch(body, b) {
		return false, nil
	}
	b.Reset()
	return true, json.Unmarshal(body, b)
}

// fastQuery decodes the flat forms real clients send — one object, numeric
// array, plain ASCII strings, nulls, unknown scalar fields — without
// encoding/json, whose Unmarshal costs four allocations per call and about
// 150 ns per number. It reports false on anything else, malformed or merely
// unusual (escapes, nested unknown values, keys encoding/json would
// case-fold onto a field), and the caller falls back; it never accepts a body
// the fallback would reject or read differently. q must be Reset before and,
// on false, again before the fallback.
//
//calloc:noalloc
func fastQuery(body []byte, q *Query) bool {
	d := decoder{b: body}
	d.space()
	return d.query(q) && d.end()
}

//calloc:noalloc
func fastBatch(body []byte, b *Batch) bool {
	d := decoder{b: body}
	d.space()
	return d.batch(b) && d.end()
}

// decoder is a cursor over one body. All methods advance i past what they
// consume and report false on anything outside the fast grammar.
type decoder struct {
	b []byte
	i int
}

// query decodes one query object at the cursor.
//
//calloc:noalloc
func (d *decoder) query(q *Query) bool {
	if !d.eat('{') {
		return false
	}
	d.space()
	if d.eat('}') {
		return true
	}
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		switch string(key) { // compiler elides the conversion in a switch
		case "rss":
			// A repeated key replaces the slice, matching json.Unmarshal's
			// last-wins semantics.
			q.RSS, ok = d.floats(q.RSS[:0])
		case "floor":
			ok = d.optInt(&q.Floor)
		case "building":
			ok = d.optInt(&q.Building)
		case "backend":
			ok = d.optStr(&q.Backend)
		default:
			ok = !foldsTo(key, "rss", "floor", "building", "backend") && d.skipScalar()
		}
		if !ok {
			return false
		}
		d.space()
		if d.eat(',') {
			d.space()
			continue
		}
		return d.eat('}')
	}
}

// batch decodes one batch object at the cursor, appending rows into the
// slots b.Queries already owns.
//
//calloc:noalloc
func (d *decoder) batch(b *Batch) bool {
	if !d.eat('{') {
		return false
	}
	d.space()
	if d.eat('}') {
		return true
	}
	seenQueries := false
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "backend":
			ok = d.optStr(&b.Backend)
		case "queries":
			// encoding/json decodes a repeated array key over the rows of
			// the first one without clearing them; not worth mirroring.
			ok = !seenQueries && (d.null() || d.rows(b))
			seenQueries = true
		default:
			ok = !foldsTo(key, "backend", "queries") && d.skipScalar()
		}
		if !ok {
			return false
		}
		d.space()
		if d.eat(',') {
			d.space()
			continue
		}
		return d.eat('}')
	}
}

// rows decodes `[query, query, ...]`. Slots past len(b.Queries) are clean —
// Batch.Reset clears to capacity — so each row decodes in place and keeps the
// RSS capacity its slot grew on earlier requests.
//
//calloc:noalloc
func (d *decoder) rows(b *Batch) bool {
	if !d.eat('[') {
		return false
	}
	d.space()
	if d.eat(']') {
		return true
	}
	for {
		n := len(b.Queries)
		if n < cap(b.Queries) {
			b.Queries = b.Queries[:n+1]
		} else {
			b.Queries = append(b.Queries, Query{})
		}
		if !d.query(&b.Queries[n]) {
			return false
		}
		d.space()
		if d.eat(',') {
			d.space()
			continue
		}
		return d.eat(']')
	}
}

// foldsTo reports whether encoding/json would match key to one of names
// although the bytes differ: it folds ASCII case. (It also folds U+017F and
// U+212A onto 's' and 'k'; str has punted on those already, as on every
// non-ASCII byte.)
//
//calloc:noalloc
func foldsTo(key []byte, names ...string) bool {
	for _, name := range names {
		if len(key) != len(name) {
			continue
		}
		same := true
		for i := 0; i < len(name) && same; i++ {
			same = key[i]|0x20 == name[i] // names are lower-case letters
		}
		if same {
			return true
		}
	}
	return false
}

//calloc:noalloc
func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

//calloc:noalloc
func (d *decoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only trailing whitespace remains.
//
//calloc:noalloc
func (d *decoder) end() bool {
	d.space()
	return d.i == len(d.b)
}

// str parses a JSON string of printable ASCII with no escape sequences,
// returning the raw bytes between the quotes. A backslash or a non-ASCII byte
// punts (encoding/json unescapes, and replaces invalid UTF-8); a control
// character is not JSON at all.
//
//calloc:noalloc
func (d *decoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			s := d.b[start:d.i]
			d.i++
			return s, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, false
		}
		d.i++
	}
	return nil, false
}

// optStr parses a string or null into s; null leaves s alone, as
// encoding/json does for a string field.
//
//calloc:noalloc
func (d *decoder) optStr(s *Str) bool {
	if d.null() {
		return true
	}
	v, ok := d.str()
	if ok {
		*s = v
	}
	return ok
}

// key parses `"name" :` and leaves the cursor at the value.
//
//calloc:noalloc
func (d *decoder) key() ([]byte, bool) {
	k, ok := d.str()
	if !ok {
		return nil, false
	}
	d.space()
	if !d.eat(':') {
		return nil, false
	}
	d.space()
	return k, true
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number consumes one token of the JSON number grammar
//
//	-? (0 | [1-9][0-9]*) (\. [0-9]+)? ([eE] [+-]? [0-9]+)?
//
// and returns the float64 nearest to it, the value strconv.ParseFloat — and
// so encoding/json — returns. The digits fold into an integer mantissa and a
// decimal exponent as they are checked. When the mantissa is below 2^53 and
// the exponent within ±22, both the mantissa and the power of ten are exact
// float64s, so the one multiply or divide rounds once and is the correctly
// rounded result (Clinger's exact case); anything longer goes to ParseFloat
// as an already validated token. A token outside float64's range is a punt:
// encoding/json rejects it in a float field and accepts it in a skipped one.
//
//calloc:noalloc
func (d *decoder) number() (float64, bool) {
	b, i := d.b, d.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var (
		mant   uint64 // the significant digits, while they fit
		digits int    // how many are in mant, leading zeros not counted
		exp10  int    // value = mant × 10^exp10
		exact  = true // no digit was dropped from mant
	)
	switch {
	case i < len(b) && b[i] == '0':
		i++
		if i < len(b) && b[i]-'0' < 10 {
			return 0, false // leading zero
		}
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if digits < 19 { // 19 digits cannot overflow a uint64
				mant = mant*10 + uint64(b[i]-'0')
				digits++
			} else {
				exact = false
			}
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if digits < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				if mant != 0 {
					digits++
				}
				exp10--
			} else {
				exact = false
			}
		}
		if i == frac {
			return 0, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		edigits := i
		e := 0
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if e < 10000 { // far outside ±22 already; stop before int overflows
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == edigits {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	d.i = i
	if exact && mant < 1<<53 && exp10 >= -22 && exp10 <= 22 {
		f := float64(mant)
		if exp10 < 0 {
			f /= pow10[-exp10]
		} else {
			f *= pow10[exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64) //calloc:allow the compiler elides this non-escaping conversion (escapecheck-verified)
	return v, err == nil
}

// floats parses `[n, n, ...]` appending into dst.
//
//calloc:noalloc
func (d *decoder) floats(dst []float64) ([]float64, bool) {
	if !d.eat('[') {
		return dst, false
	}
	d.space()
	if d.eat(']') {
		return dst, true
	}
	for {
		v, ok := d.number()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		d.space()
		if d.eat(',') {
			d.space()
			continue
		}
		return dst, d.eat(']')
	}
}

// optInt parses an integer or null into o (json.Unmarshal resets o on null
// via OptInt.UnmarshalJSON; so does this).
//
//calloc:noalloc
func (d *decoder) optInt(o *OptInt) bool {
	if d.null() {
		*o = OptInt{}
		return true
	}
	start := d.i
	d.eat('-')
	digits := d.i
	for d.i < len(d.b) && d.b[d.i]-'0' < 10 {
		d.i++
	}
	if d.i-digits > 1 && d.b[digits] == '0' {
		return false // leading zero
	}
	v, ok := parseInt(d.b[start:d.i])
	if ok {
		*o = OptInt{Set: true, V: v}
	}
	return ok
}

// parseInt parses `-?[0-9]+` into an int, reporting false on anything else
// and on overflow.
//
//calloc:noalloc
func parseInt(b []byte) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	limit := ^uint(0) >> 1 // the largest int; its negation has room for one more
	if neg {
		limit++
	}
	var v uint
	for _, c := range b {
		n := uint(c - '0')
		if n > 9 || v > (limit-n)/10 {
			return 0, false
		}
		v = v*10 + n
	}
	if neg {
		return -int(v), true
	}
	return int(v), true
}

//calloc:noalloc
func (d *decoder) null() bool { return d.lit("null") }

// skipScalar consumes one unknown field's value when it is a scalar
// (string, number, boolean, null). Containers punt to the fallback.
//
//calloc:noalloc
func (d *decoder) skipScalar() bool {
	if d.i >= len(d.b) {
		return false
	}
	switch c := d.b[d.i]; {
	case c == '"':
		_, ok := d.str()
		return ok
	case c == 't':
		return d.lit("true")
	case c == 'f':
		return d.lit("false")
	case c == 'n':
		return d.null()
	case c == '-' || c-'0' < 10:
		_, ok := d.number()
		return ok
	}
	return false
}

//calloc:noalloc
func (d *decoder) lit(s string) bool {
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}
