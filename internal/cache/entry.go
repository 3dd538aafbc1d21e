package cache

// Serialized entry shapes. The analysis stores one kind of entry, the
// unit entry: one checker's complete analysis output for one call-graph
// unit — report segments per root, stats, rule counts, marks: what a
// warm run replays — keyed
// by checker + options + environment + visible marks + the unit's
// member-function hashes. Every key names the complete computation
// behind its value, so a run writes only keys the store lacked, or
// held damaged.
//
// The record (DESIGN.md §8 "The unit record") is binary: the magic, a
// body, and a CRC-32C of the body. The body is stated once: a recCodec
// walks an entry's fields in wire order, and the same walk writes them
// (EncodeUnit) or reads them back (UnitDecoder.Decode).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/report"
)

// RootReports is one root's report segment inside a unit entry. Root
// is the prog.FuncID of the root function.
type RootReports struct {
	Root    string
	Reports []*report.Report
}

// UnitEntry is one checker's cached analysis of one call-graph unit:
// everything a warm run needs to reproduce the unit's contribution
// without traversing it, and nothing else (DESIGN.md §8). Summaries is
// a vestige: nothing sets or stores it, and it stays only because the
// frozen benchmark/layers.go:511 reads the field.
type UnitEntry struct {
	Roots     []RootReports
	Stats     core.Stats
	Rules     map[string]*core.RuleCount
	Marks     []core.MarkEvent
	Summaries *core.SummaryData
}

// NewUnitEntry is the one producer of unit records: the entry for a
// live run of one unit, from the per-root segments RunRootsContext returned and
// the engine's cut at the unit boundary.
func NewUnitEntry(cut core.UnitCut, runs []core.RootRun) *UnitEntry {
	e := &UnitEntry{Stats: cut.Stats, Rules: cut.Rules, Marks: cut.Marks, Roots: make([]RootReports, len(runs))}
	for i, rr := range runs {
		e.Roots[i] = RootReports{Root: prog.FuncID(rr.Root), Reports: rr.Reports}
	}
	return e
}

// unitMagic opens every unit record; a v4 record (JSON), a v3 one (two
// sections), a v2 one (bare JSON) or any other foreign blob fails the
// check instead of being mis-decoded.
const unitMagic = "xgu5"

// castagnoli is the record trailer's CRC-32C table, the one LogStore
// frames its records with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeUnit serializes a unit entry: magic, body, CRC-32C of the body.
// A nil report is the one entry it refuses.
func EncodeUnit(e *UnitEntry) ([]byte, error) {
	c := &recCodec{w: true, buf: append(make([]byte, 0, 256), unitMagic...), ids: map[string]int{}}
	c.entry(e)
	if c.err != nil {
		return nil, c.err
	}
	return binary.LittleEndian.AppendUint32(c.buf, crc32.Checksum(c.buf[len(unitMagic):], castagnoli)), nil
}

// DecodeUnit parses a record. Any damage is an error: the caller's miss.
func DecodeUnit(data []byte) (*UnitEntry, error) {
	return new(UnitDecoder).Decode(data)
}

// UnitDecoder decodes unit records and shares their strings: a file,
// function, checker, rule or message repeated across the records one
// decoder reads is allocated once (mc decodes a probe's records with
// one). The zero value is ready to use; it is not safe for concurrent
// use.
type UnitDecoder struct {
	slot  map[string]int32 // an interned string's index in strs
	strs  []interned
	rec   uint32   // records decoded so far: the current one's number
	table []string // the current record's string table
}

// interned is one shared string and the last record that introduced it
// into its table.
type interned struct {
	s   string
	rec uint32
}

// Decode parses a record: magic, body, CRC-32C trailer. A record whose
// checksum, structure or string table does not hold is an error, and
// one that decodes re-encodes to its own bytes.
func (d *UnitDecoder) Decode(data []byte) (*UnitEntry, error) {
	end := len(data) - crc32.Size
	if end < len(unitMagic) || string(data[:len(unitMagic)]) != unitMagic {
		return nil, errors.New("cache: not a unit record")
	}
	body := data[len(unitMagic):end]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, errors.New("cache: unit record checksum mismatch")
	}
	d.rec++
	d.table = d.table[:0]
	c := &recCodec{buf: body, dec: d}
	e := &UnitEntry{}
	c.entry(e)
	if c.err == nil && c.off < len(body) {
		c.fail("trailing bytes")
	}
	if c.err != nil {
		return nil, c.err
	}
	return e, nil
}

// intern adds b to the current record's string table as the shared
// string with its bytes; false if the record has introduced it already.
func (d *UnitDecoder) intern(b []byte) (string, bool) {
	i, ok := d.slot[string(b)]
	if !ok {
		if d.slot == nil {
			d.slot = map[string]int32{}
		}
		i = int32(len(d.strs))
		s := string(b)
		d.slot[s] = i
		d.strs = append(d.strs, interned{s: s})
	} else if d.strs[i].rec == d.rec {
		return "", false
	}
	d.strs[i].rec = d.rec
	d.table = append(d.table, d.strs[i].s)
	return d.strs[i].s, true
}

// recCodec is one walk over a record body. A writer (w) appends each
// field to buf and numbers strings on first use. A reader consumes buf
// from off and keeps the first error it meets; after it, every
// primitive is a no-op. A read entry's reports and string lists are
// carved from slabs sized by the body's first two counts, which must
// come out exact.
type recCodec struct {
	w   bool
	buf []byte
	ids map[string]int // a written string's index in the record's table

	off     int
	dec     *UnitDecoder
	err     error
	reports []report.Report
	ptrs    []*report.Report
	lists   []string
}

func (c *recCodec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("cache: malformed unit record: %s at byte %d", what, len(unitMagic)+c.off)
	}
}

// uvarint lists an unsigned integer in its shortest varint form; a read
// refuses any longer one.
func (c *recCodec) uvarint(v uint64) uint64 {
	if c.w {
		c.buf = binary.AppendUvarint(c.buf, v)
		return v
	}
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 || n > 1 && c.buf[c.off+n-1] == 0 {
		c.fail("bad varint")
		return 0
	}
	c.off += n
	return v
}

// count lists a length. A read one is at most the bytes left: every
// element it counts takes at least one.
func (c *recCodec) count(n *int) {
	v := c.uvarint(uint64(*n))
	if c.w {
		return
	}
	if v > uint64(len(c.buf)-c.off) {
		c.fail("count past the end")
		v = 0
	}
	*n = int(v)
}

// num lists a signed integer, zigzag-encoded.
func (c *recCodec) num(p *int64) {
	u := c.uvarint(uint64(*p<<1) ^ uint64(*p>>63))
	if !c.w {
		*p = int64(u>>1) ^ -int64(u&1)
	}
}

func (c *recCodec) int(p *int) {
	v := int64(*p)
	c.num(&v)
	*p = int(v)
}

func (c *recCodec) flag(p *bool) {
	v := uint64(0)
	if *p {
		v = 1
	}
	if v = c.uvarint(v); !c.w {
		if v > 1 {
			c.fail("bad flag")
		}
		*p = v == 1
	}
}

// str lists a string by its place in the record's string table: 0
// introduces the next entry, its length and bytes following, and i > 0
// names entry i-1. A writer introduces each string once and a reader
// refuses a string introduced twice, so the table has one form.
func (c *recCodec) str(p *string) {
	if c.w {
		if i, ok := c.ids[*p]; ok {
			c.uvarint(uint64(i) + 1)
			return
		}
		c.ids[*p] = len(c.ids)
		c.uvarint(0)
		c.uvarint(uint64(len(*p)))
		c.buf = append(c.buf, *p...)
		return
	}
	ref := c.uvarint(0)
	if c.err != nil {
		return
	}
	if ref > 0 {
		if ref > uint64(len(c.dec.table)) {
			c.fail("undefined string")
			return
		}
		*p = c.dec.table[ref-1]
		return
	}
	n := 0
	if c.count(&n); c.err != nil {
		return
	}
	s, ok := c.dec.intern(c.buf[c.off : c.off+n])
	if !ok {
		c.fail("string introduced twice")
		return
	}
	c.off += n
	*p = s
}

// list lists a slice: its length, then each element.
func list[T any](c *recCodec, p *[]T, f func(*T)) {
	n := len(*p)
	c.count(&n)
	if !c.w && n > 0 {
		*p = make([]T, n)
	}
	for i := 0; i < len(*p) && c.err == nil; i++ {
		f(&(*p)[i])
	}
}

// sortedMap lists a string-keyed map as its entries in key order, so a
// record is a function of its content; a read refuses keys out of
// order. f lists one value: it is handed the value to write, or on a
// read the zero value, and returns the value it listed.
func sortedMap[V any](c *recCodec, p *map[string]V, f func(V) V) {
	n := len(*p)
	c.count(&n)
	if c.w {
		keys := make([]string, 0, n)
		for k := range *p {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c.str(&k)
			f((*p)[k])
		}
		return
	}
	if c.err != nil || n == 0 {
		return
	}
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n && c.err == nil; i++ {
		var k string
		c.str(&k)
		var zero V
		m[k] = f(zero)
		if i > 0 && k <= prev {
			c.fail("keys out of order")
		}
		prev = k
	}
	*p = m
}

// entry lists a unit entry: the sizes of its report and string-list
// slabs, its roots with their reports, its stats, rules and marks.
func (c *recCodec) entry(e *UnitEntry) {
	var nr, nl int
	for _, rr := range e.Roots {
		for _, r := range rr.Reports {
			if nr++; r != nil {
				nl += len(r.Vars) + len(r.Trace)
			}
		}
	}
	c.count(&nr)
	c.count(&nl)
	if !c.w && c.err == nil {
		c.reports = make([]report.Report, nr)
		c.ptrs = make([]*report.Report, nr)
		c.lists = make([]string, nl)
	}
	list(c, &e.Roots, func(rr *RootReports) {
		c.str(&rr.Root)
		c.reportList(&rr.Reports)
	})
	c.stats(&e.Stats)
	sortedMap(c, &e.Rules, func(rc *core.RuleCount) *core.RuleCount {
		if rc == nil {
			rc = &core.RuleCount{}
		}
		c.int(&rc.Examples)
		c.int(&rc.Violations)
		return rc
	})
	list(c, &e.Marks, func(m *core.MarkEvent) {
		c.str(&m.Name)
		c.str(&m.Key)
	})
	if !c.w && c.err == nil && len(c.reports)+len(c.lists) > 0 {
		c.fail("slab sizes do not match the reports")
	}
}

// reportList lists one root's reports, read into the record's slab.
func (c *recCodec) reportList(p *[]*report.Report) {
	n := len(*p)
	c.count(&n)
	if !c.w {
		if c.err != nil || n == 0 {
			return
		}
		if n > len(c.reports) {
			c.fail("more reports than the slab")
			return
		}
		*p = c.ptrs[:n:n]
		for i := range *p {
			(*p)[i] = &c.reports[i]
		}
		c.reports, c.ptrs = c.reports[n:], c.ptrs[n:]
	}
	for _, r := range *p {
		if r == nil {
			c.err = errors.New("cache: nil report in a unit entry")
			return
		}
		c.report(r)
	}
}

func (c *recCodec) report(r *report.Report) {
	c.str(&r.Checker)
	c.str(&r.Rule)
	c.str(&r.Msg)
	c.pos(&r.Pos)
	c.pos(&r.Start)
	c.str(&r.Func)
	c.strList(&r.Vars)
	c.int(&r.Conditionals)
	c.int(&r.SynonymDepth)
	c.flag(&r.Interprocedural)
	c.int(&r.CallChain)
	class := string(r.Class)
	c.str(&class)
	r.Class = report.Class(class)
	c.strList(&r.Trace)
}

func (c *recCodec) pos(p *cc.Pos) {
	c.str(&p.File)
	c.int(&p.Line)
	c.int(&p.Col)
}

// strList lists a report's string list, read into the record's slab.
func (c *recCodec) strList(p *[]string) {
	n := len(*p)
	c.count(&n)
	if !c.w {
		if c.err != nil || n == 0 {
			return
		}
		if n > len(c.lists) {
			c.fail("more strings than the slab")
			return
		}
		*p, c.lists = c.lists[:n:n], c.lists[n:]
	}
	for i := range *p {
		c.str(&(*p)[i])
	}
}

func (c *recCodec) stats(s *core.Stats) {
	for _, p := range [...]*int64{&s.Points, &s.Blocks, &s.Paths, &s.PrunedPaths,
		&s.CacheHits, &s.CacheMisses, &s.FuncCacheHits, &s.FuncFollows,
		&s.RecursionCuts, &s.FingerprintFallbacks, &s.StaticsHeld,
		&s.InstanceOps, &s.RootsSkipped} {
		c.num(p)
	}
	sortedMap(c, &s.Analyses, func(v int) int {
		c.int(&v)
		return v
	})
}

// UnitKey derives the store key for a unit entry. checkerFP covers
// the checker's source; optsFP the core.Options;
// envFP the position-independent declaration environment; marksFP the
// visible composition marks at phase start; unitFP the sorted member
// FuncID+hash list.
func UnitKey(checkerFP, optsFP, envFP, marksFP, unitFP string) string {
	return Key("unit", checkerFP, optsFP, envFP, marksFP, unitFP)
}
