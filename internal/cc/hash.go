package cc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
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
	c := newWriter()
	c.decl(&d)
	return HashBytes(append(c.typeLines(nil), c.buf...))
}

// FuncSignature renders the position-independent interface of a
// function declaration: storage class, name, result and parameter type
// shapes, variadic flag, and defining file (file-static shadowing is
// part of call resolution, §6.1). Bodies and positions are excluded:
// the signature changes only when the function's externally visible
// shape changes, so edits inside one body do not invalidate the
// analysis of functions that merely call it by name.
func FuncSignature(fd *FuncDecl) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fn|%d|%s|%s|%s(", int(fd.Storage), fd.File, fd.Name, typeShape(fd.Result))
	for i, p := range fd.Params {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(typeShape(p.Type))
	}
	if fd.Variadic {
		sb.WriteString(",...")
	}
	sb.WriteByte(')')
	return sb.String()
}

// typeShape renders a type's structural identity without positions:
// the emitted definitions of a fresh type table (one per call keeps the
// ids deterministic for identical structures) and the type's id.
func typeShape(t *Type) string {
	if t == nil {
		return "?"
	}
	c := newWriter()
	id := c.typeID(t)
	return HashBytes(strconv.AppendInt(append(c.typeLines(nil), '#'), int64(id), 10))[:16]
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
	h := sha256.New()
	for _, f := range files {
		fmt.Fprintf(h, "file %s\n", f.Name)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *FuncDecl:
				fmt.Fprintf(h, "%s\n", FuncSignature(d))
			case *VarDecl:
				init := ""
				if d.Init != nil {
					init = ExprString(d.Init)
				}
				fmt.Fprintf(h, "var|%d|%s|%s|%s\n", int(d.Storage), d.Name, typeShape(d.Type), init)
			case *TypedefDecl:
				fmt.Fprintf(h, "typedef|%s|%s\n", d.Name, typeShape(d.Type))
			case *RecordDecl:
				fmt.Fprintf(h, "record|%s\n", typeShape(d.Type))
			default:
				fmt.Fprintf(h, "decl %s\n", HashDecl(d))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
