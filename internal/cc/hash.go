package cc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"strconv"
)

// This file provides stable content hashing of emitted ASTs — the
// identity layer of the incremental-analysis cache (DESIGN.md §8). Two
// declarations hash equal exactly when their emitted pass-1 forms are
// byte-identical, which covers structure, resolved types, and source
// positions: a function whose lines shifted hashes differently, so
// cached reports (which embed positions) are never replayed stale.

// HashBytes returns the hex SHA-256 of data.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// HashDecl content-hashes one declaration by emitting it with a fresh
// type table (so resolved types participate in identity): its type
// definitions, one a line, then the declaration. The hash covers
// source positions; it deliberately does NOT cover the file name —
// callers that need per-file identity combine it with the file name
// themselves.
func HashDecl(d Decl) string {
	sum := NewHasher().Decl(d)
	return hex.EncodeToString(sum[:])
}

// EnvHash fingerprints the whole-program declaration environment the
// per-function analysis depends on beyond the function bodies
// themselves: typedefs, struct layouts, file-scope variables (the
// global/static scope classification of §6.1), and every function
// signature. Positions and function bodies are excluded — the
// environment pieces the engine consumes (names, resolved types,
// storage classes, defining files) are position-free, so a banner
// comment that shifts a whole file re-fingerprints only that file's
// functions, not the environment every other file's analysis is keyed
// on. A body edit likewise invalidates only the functions the call
// graph says it can reach (prog's dirty closure).
func EnvHash(files []*File) string {
	sum := NewHasher().Env(files)
	return hex.EncodeToString(sum[:])
}

// Hasher computes HashDecl's and EnvHash's digests, unrendered, with
// one type writer and two SHA-256 states reused across every
// declaration and type shape it hashes, so hashing a tree allocates per
// tree rather than per type. A type's shape is memoised by pointer: the
// types of the files one Hasher sees must not change while it is in
// use. A Hasher is not safe for concurrent use.
type Hasher struct {
	c         *codec
	d         Decl     // the declaration Decl is hashing, addressable without an allocation
	head      FuncDecl // the declaration Func hashes without its body
	env, decl hash.Hash
	shapes    map[*Type][8]byte
	line      []byte // the environment line being written
	scratch   []byte // type definitions, one a line
	sum       []byte // a digest as hash.Hash.Sum appends it
}

// NewHasher returns a Hasher with an empty shape memo.
func NewHasher() *Hasher {
	return &Hasher{c: newWriter(), env: sha256.New(), decl: sha256.New(), shapes: map[*Type][8]byte{}}
}

// Decl is HashDecl's digest: the SHA-256 of d's type definitions, one a
// line, then d, as a fresh type table emits them, streamed into the
// hash.
func (x *Hasher) Decl(d Decl) [sha256.Size]byte {
	x.c.reset()
	x.d = d
	x.c.decl(&x.d)
	x.d = nil
	x.scratch = x.c.typeLines(x.scratch[:0])
	x.decl.Reset()
	x.decl.Write(x.scratch)
	x.decl.Write(x.c.buf)
	return x.digest(x.decl)
}

// Func is the digest a unit key holds for a function definition. For
// one pass 1 skimmed, it covers the declaration without its body, as
// Decl would hash it, then the body's tokens and their positions:
// streamed from the token span, with no AST and no emitted form. For
// any other, it is Decl's digest. An edit that changes Decl's digest of
// the parsed definition changes Func's of the skimmed one
// (TestSkimMatchesParse); types the body names are covered by the
// declaration environment every unit key also holds.
func (x *Hasher) Func(fd *FuncDecl) [sha256.Size]byte {
	s := &fd.Skim
	if s.src == nil {
		return x.Decl(fd)
	}
	x.head = *fd
	x.head.Body, x.head.Skim = nil, BodySkim{}
	x.c.reset()
	x.d = &x.head
	x.c.decl(&x.d)
	x.d, x.head = nil, FuncDecl{}
	x.scratch = x.c.typeLines(x.scratch[:0])
	x.decl.Reset()
	x.decl.Write(x.scratch)
	x.decl.Write(x.c.buf)
	l := append(x.line[:0], "body\n"...)
	src := s.src.src
	for _, t := range s.src.toks[s.Lo : s.Hi+1] {
		text := t.Text(src)
		l = binary.AppendUvarint(l, uint64(t.Kind))
		l = binary.AppendUvarint(l, uint64(len(text)))
		l = append(l, text...)
		l = binary.AppendUvarint(binary.AppendUvarint(l, uint64(t.Line)), uint64(t.Col))
		if len(l) >= 4096 {
			x.decl.Write(l)
			l = l[:0]
		}
	}
	x.decl.Write(l)
	x.line = l
	return x.digest(x.decl)
}

// digest returns h's sum. It is appended to the Hasher's buffer and
// copied out: an array handed to Sum through the interface would escape.
func (x *Hasher) digest(h hash.Hash) (sum [sha256.Size]byte) {
	x.sum = h.Sum(x.sum[:0])
	copy(sum[:], x.sum)
	return sum
}

// Env is EnvHash's digest: one line per file and per declaration,
// streamed into the hash.
func (x *Hasher) Env(files []*File) [sha256.Size]byte {
	x.env.Reset()
	for _, f := range files {
		x.write(append(append(x.line[:0], "file "...), f.Name...))
		for _, d := range f.Decls {
			l := x.line[:0]
			switch d := d.(type) {
			case *FuncDecl:
				l = x.signature(l, d)
			case *VarDecl:
				l = strconv.AppendInt(append(l, "var|"...), int64(d.Storage), 10)
				l = x.shape(append(append(append(l, '|'), d.Name...), '|'), d.Type)
				l = AppendExpr(append(l, '|'), d.Init)
			case *TypedefDecl:
				l = x.shape(append(append(append(l, "typedef|"...), d.Name...), '|'), d.Type)
			case *RecordDecl:
				l = x.shape(append(l, "record|"...), d.Type)
			default:
				sum := x.Decl(d)
				l = hex.AppendEncode(append(l, "decl "...), sum[:])
			}
			x.write(l)
		}
	}
	return x.digest(x.env)
}

// write ends line l and streams it into the environment hash, keeping
// its buffer for the next line.
func (x *Hasher) write(l []byte) {
	x.line = append(l, '\n')
	x.env.Write(x.line)
}

// signature appends the position-independent interface of a function
// declaration: storage class, name, result and parameter type shapes,
// variadic flag, and defining file (file-static shadowing is part of
// call resolution, §6.1). Bodies and positions are excluded: the
// signature changes only when the function's externally visible shape
// changes, so edits inside one body do not invalidate the analysis of
// functions that merely call it by name.
func (x *Hasher) signature(l []byte, fd *FuncDecl) []byte {
	l = strconv.AppendInt(append(l, "fn|"...), int64(fd.Storage), 10)
	l = append(append(append(append(append(l, '|'), fd.File...), '|'), fd.Name...), '|')
	l = append(x.shape(l, fd.Result), '(')
	for i, p := range fd.Params {
		if i > 0 {
			l = append(l, ',')
		}
		l = x.shape(l, p.Type)
	}
	if fd.Variadic {
		l = append(l, ",..."...)
	}
	return append(l, ')')
}

// shape appends a type's structural identity without positions: the
// first 16 hex digits of the SHA-256 of a fresh type table's emitted
// definitions (a fresh table per type keeps the ids deterministic for
// identical structures) and the type's id; "?" for none.
func (x *Hasher) shape(l []byte, t *Type) []byte {
	if t == nil {
		return append(l, '?')
	}
	short, ok := x.shapes[t]
	if !ok {
		x.c.reset()
		id := x.c.typeID(t)
		x.scratch = strconv.AppendInt(append(x.c.typeLines(x.scratch[:0]), '#'), int64(id), 10)
		sum := sha256.Sum256(x.scratch)
		copy(short[:], sum[:])
		x.shapes[t] = short
	}
	return hex.AppendEncode(l, short[:])
}
