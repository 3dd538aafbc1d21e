package cc

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// TypeKind enumerates the kinds of C types the front end models.
type TypeKind int

// Type kinds.
const (
	TypeUnknown TypeKind = iota // undeclared identifiers, unresolved calls
	TypeVoid
	TypeInt   // all integer types; Size+Unsigned refine
	TypeFloat // float and double; Size refines
	TypePointer
	TypeArray
	TypeFunc
	TypeStruct
	TypeUnion
	TypeEnum
	TypeNamed // a typedef use; Def holds the underlying type
)

// Field is a struct or union member.
type Field struct {
	Name string
	Type *Type
}

// EnumConst is one enumerator.
type EnumConst struct {
	Name  string
	Value int64
}

// Type is a structural C type. Types are compared structurally (see
// SameType); typedefs are transparent for compatibility but preserved
// for printing. A Type is never copied whole: its pointer memo is its
// own (go vet holds this).
type Type struct {
	Kind TypeKind

	// Integer / float refinement.
	Unsigned bool
	Size     int // bytes: char=1, short=2, int=4, long=8; float=4, double=8

	// Pointer / array element.
	Elem     *Type
	ArrayLen int64 // -1 if unspecified

	// Function signature.
	Ret      *Type
	Params   []*Type
	Variadic bool

	// Struct / union / enum.
	Tag    string
	Fields []Field
	Enums  []EnumConst

	// Typedef.
	Name string
	Def  *Type

	// Qualifiers (informational; not used for compatibility).
	Const    bool
	Volatile bool

	// ptr is PointerTo's memo: the pointer type to this one.
	ptr atomic.Pointer[Type]
}

// Prebuilt basic types shared across the package. They must be treated
// as immutable.
var (
	TypeVoidV    = &Type{Kind: TypeVoid}
	TypeCharV    = &Type{Kind: TypeInt, Size: 1}
	TypeUCharV   = &Type{Kind: TypeInt, Size: 1, Unsigned: true}
	TypeShortV   = &Type{Kind: TypeInt, Size: 2}
	TypeIntV     = &Type{Kind: TypeInt, Size: 4}
	TypeUIntV    = &Type{Kind: TypeInt, Size: 4, Unsigned: true}
	TypeLongV    = &Type{Kind: TypeInt, Size: 8}
	TypeULongV   = &Type{Kind: TypeInt, Size: 8, Unsigned: true}
	TypeFloatV   = &Type{Kind: TypeFloat, Size: 4}
	TypeDoubleV  = &Type{Kind: TypeFloat, Size: 8}
	TypeUnknownV = &Type{Kind: TypeUnknown}
)

// PointerTo returns the pointer type to elem: one per element type,
// made at its first use and kept with the element, so every int * of
// every parse is the one kept with TypeIntV. The memo is atomic because
// the package's scalar types, and the pointers to them, are shared by
// every parse in the process. A pointer type is allocated alone, never
// carved: a kept declaration may point at it after the pass (DESIGN
// §12.1). A nil element (a decoded type may have one) gets a type of
// its own.
func PointerTo(elem *Type) *Type {
	if elem == nil {
		return &Type{Kind: TypePointer}
	}
	if p := elem.ptr.Load(); p != nil {
		return p
	}
	p := &Type{Kind: TypePointer, Elem: elem}
	if elem.ptr.CompareAndSwap(nil, p) {
		return p
	}
	return elem.ptr.Load()
}

// qualified returns a copy of t with the given qualifiers: a type of
// its own, without t's pointer memo. It names the fields it copies:
// reading t whole would race with a parse that sets a shared type's
// memo.
func (t *Type) qualified(isConst, isVolatile bool) *Type {
	return &Type{
		Kind: t.Kind, Unsigned: t.Unsigned, Size: t.Size,
		Elem: t.Elem, ArrayLen: t.ArrayLen,
		Ret: t.Ret, Params: t.Params, Variadic: t.Variadic,
		Tag: t.Tag, Fields: t.Fields, Enums: t.Enums,
		Name: t.Name, Def: t.Def,
		Const: isConst, Volatile: isVolatile,
	}
}

// Underlying resolves typedef chains to the structural type.
func (t *Type) Underlying() *Type {
	for t != nil && t.Kind == TypeNamed {
		if t.Def == nil {
			return TypeUnknownV
		}
		t = t.Def
	}
	if t == nil {
		return TypeUnknownV
	}
	return t
}

// IsPointer reports whether the type (after typedefs) is a pointer or
// an array (which decays to a pointer in expression contexts).
func (t *Type) IsPointer() bool {
	u := t.Underlying()
	return u.Kind == TypePointer || u.Kind == TypeArray
}

// IsScalar reports whether the type (after typedefs) is an arithmetic
// scalar: integer, float, or enum.
func (t *Type) IsScalar() bool {
	u := t.Underlying()
	return u.Kind == TypeInt || u.Kind == TypeFloat || u.Kind == TypeEnum
}

// IsUnknown reports whether the type is the unknown type.
func (t *Type) IsUnknown() bool { return t == nil || t.Underlying().Kind == TypeUnknown }

// PointeeType returns the element type for pointers and arrays, or nil.
func (t *Type) PointeeType() *Type {
	u := t.Underlying()
	if u.Kind == TypePointer || u.Kind == TypeArray {
		return u.Elem
	}
	return nil
}

// FieldType returns the type of the named field of a struct/union, or
// the unknown type if the record or field is not known.
func (t *Type) FieldType(name string) *Type {
	u := t.Underlying()
	if u.Kind != TypeStruct && u.Kind != TypeUnion {
		return TypeUnknownV
	}
	for _, f := range u.Fields {
		if f.Name == name {
			return f.Type
		}
	}
	return TypeUnknownV
}

// SameType reports structural type equality, looking through typedefs.
// Unknown types are equal only to unknown types; permissive matching is
// the pattern matcher's job, not the type system's.
func SameType(a, b *Type) bool {
	a, b = a.Underlying(), b.Underlying()
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case TypeUnknown, TypeVoid:
		return true
	case TypeInt, TypeFloat:
		return a.Size == b.Size && a.Unsigned == b.Unsigned
	case TypePointer:
		return SameType(a.Elem, b.Elem)
	case TypeArray:
		return SameType(a.Elem, b.Elem)
	case TypeFunc:
		if !SameType(a.Ret, b.Ret) || len(a.Params) != len(b.Params) || a.Variadic != b.Variadic {
			return false
		}
		for i := range a.Params {
			if !SameType(a.Params[i], b.Params[i]) {
				return false
			}
		}
		return true
	case TypeStruct, TypeUnion, TypeEnum:
		// Tag equality suffices within a program; anonymous records
		// compare by field structure.
		if a.Tag != "" || b.Tag != "" {
			return a.Tag == b.Tag
		}
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Fields[i].Name != b.Fields[i].Name || !SameType(a.Fields[i].Type, b.Fields[i].Type) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the type in C-ish syntax, e.g. "int *", "struct foo",
// "int (int, char *)".
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case TypeUnknown:
		return "<unknown>"
	case TypeVoid:
		return "void"
	case TypeInt:
		base := ""
		switch t.Size {
		case 1:
			base = "char"
		case 2:
			base = "short"
		case 4:
			base = "int"
		case 8:
			base = "long"
		default:
			base = "int"
		}
		if t.Unsigned {
			return "unsigned " + base
		}
		return base
	case TypeFloat:
		if t.Size == 4 {
			return "float"
		}
		return "double"
	case TypePointer:
		return t.Elem.String() + " *"
	case TypeArray:
		if t.ArrayLen >= 0 {
			return fmt.Sprintf("%s [%d]", t.Elem, t.ArrayLen)
		}
		return t.Elem.String() + " []"
	case TypeFunc:
		parts := make([]string, len(t.Params))
		for i, p := range t.Params {
			parts[i] = p.String()
		}
		if t.Variadic {
			parts = append(parts, "...")
		}
		return fmt.Sprintf("%s (%s)", t.Ret, strings.Join(parts, ", "))
	case TypeStruct:
		if t.Tag != "" {
			return "struct " + t.Tag
		}
		return "struct <anon>"
	case TypeUnion:
		if t.Tag != "" {
			return "union " + t.Tag
		}
		return "union <anon>"
	case TypeEnum:
		if t.Tag != "" {
			return "enum " + t.Tag
		}
		return "enum <anon>"
	case TypeNamed:
		return t.Name
	}
	return "<bad type>"
}
