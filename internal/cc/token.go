// Package cc implements a from-scratch front end for a substantial
// subset of C: lexer, recursive-descent parser, abstract syntax tree,
// type checker, printer, and the two-pass AST emit/reload used by the
// analysis driver. It is the substrate on which the metal/xgcc
// reproduction operates; analyses consume its ASTs and never see text.
package cc

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds. Punctuation kinds are named after their spelling.
const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokFloatLit
	TokCharLit
	TokStringLit

	// Keywords.
	TokAuto
	TokBreak
	TokCase
	TokChar
	TokConst
	TokContinue
	TokDefault
	TokDo
	TokDouble
	TokElse
	TokEnum
	TokExtern
	TokFloat
	TokFor
	TokGoto
	TokIf
	TokInline
	TokInt
	TokLong
	TokRegister
	TokReturn
	TokShort
	TokSigned
	TokSizeof
	TokStatic
	TokStruct
	TokSwitch
	TokTypedef
	TokUnion
	TokUnsigned
	TokVoid
	TokVolatile
	TokWhile

	// Punctuation and operators.
	TokLParen   // (
	TokRParen   // )
	TokLBrace   // {
	TokRBrace   // }
	TokLBracket // [
	TokRBracket // ]
	TokComma    // ,
	TokSemi     // ;
	TokColon    // :
	TokQuestion // ?
	TokEllipsis // ...

	TokAssign    // =
	TokAddAssign // +=
	TokSubAssign // -=
	TokMulAssign // *=
	TokDivAssign // /=
	TokModAssign // %=
	TokAndAssign // &=
	TokOrAssign  // |=
	TokXorAssign // ^=
	TokShlAssign // <<=
	TokShrAssign // >>=
	TokInc       // ++
	TokDec       // --
	TokPlus      // +
	TokMinus     // -
	TokStar      // *
	TokSlash     // /
	TokPercent   // %
	TokAmp       // &
	TokPipe      // |
	TokCaret     // ^
	TokTilde     // ~
	TokNot       // !
	TokAndAnd    // &&
	TokOrOr      // ||
	TokEq        // ==
	TokNe        // !=
	TokLt        // <
	TokGt        // >
	TokLe        // <=
	TokGe        // >=
	TokShl       // <<
	TokShr       // >>
	TokDot       // .
	TokArrow     // ->
)

var tokNames = map[TokKind]string{
	TokEOF:       "EOF",
	TokIdent:     "identifier",
	TokIntLit:    "integer literal",
	TokFloatLit:  "float literal",
	TokCharLit:   "char literal",
	TokStringLit: "string literal",
	TokAuto:      "auto",
	TokBreak:     "break",
	TokCase:      "case",
	TokChar:      "char",
	TokConst:     "const",
	TokContinue:  "continue",
	TokDefault:   "default",
	TokDo:        "do",
	TokDouble:    "double",
	TokElse:      "else",
	TokEnum:      "enum",
	TokExtern:    "extern",
	TokFloat:     "float",
	TokFor:       "for",
	TokGoto:      "goto",
	TokIf:        "if",
	TokInline:    "inline",
	TokInt:       "int",
	TokLong:      "long",
	TokRegister:  "register",
	TokReturn:    "return",
	TokShort:     "short",
	TokSigned:    "signed",
	TokSizeof:    "sizeof",
	TokStatic:    "static",
	TokStruct:    "struct",
	TokSwitch:    "switch",
	TokTypedef:   "typedef",
	TokUnion:     "union",
	TokUnsigned:  "unsigned",
	TokVoid:      "void",
	TokVolatile:  "volatile",
	TokWhile:     "while",
	TokLParen:    "(",
	TokRParen:    ")",
	TokLBrace:    "{",
	TokRBrace:    "}",
	TokLBracket:  "[",
	TokRBracket:  "]",
	TokComma:     ",",
	TokSemi:      ";",
	TokColon:     ":",
	TokQuestion:  "?",
	TokEllipsis:  "...",
	TokAssign:    "=",
	TokAddAssign: "+=",
	TokSubAssign: "-=",
	TokMulAssign: "*=",
	TokDivAssign: "/=",
	TokModAssign: "%=",
	TokAndAssign: "&=",
	TokOrAssign:  "|=",
	TokXorAssign: "^=",
	TokShlAssign: "<<=",
	TokShrAssign: ">>=",
	TokInc:       "++",
	TokDec:       "--",
	TokPlus:      "+",
	TokMinus:     "-",
	TokStar:      "*",
	TokSlash:     "/",
	TokPercent:   "%",
	TokAmp:       "&",
	TokPipe:      "|",
	TokCaret:     "^",
	TokTilde:     "~",
	TokNot:       "!",
	TokAndAnd:    "&&",
	TokOrOr:      "||",
	TokEq:        "==",
	TokNe:        "!=",
	TokLt:        "<",
	TokGt:        ">",
	TokLe:        "<=",
	TokGe:        ">=",
	TokShl:       "<<",
	TokShr:       ">>",
	TokDot:       ".",
	TokArrow:     "->",
}

// String returns the human-readable spelling of the token kind.
func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

var keywords = map[string]TokKind{
	"auto": TokAuto, "break": TokBreak, "case": TokCase, "char": TokChar,
	"const": TokConst, "continue": TokContinue, "default": TokDefault,
	"do": TokDo, "double": TokDouble, "else": TokElse, "enum": TokEnum,
	"extern": TokExtern, "float": TokFloat, "for": TokFor, "goto": TokGoto,
	"if": TokIf, "inline": TokInline, "int": TokInt, "long": TokLong,
	"register": TokRegister, "return": TokReturn, "short": TokShort,
	"signed": TokSigned, "sizeof": TokSizeof, "static": TokStatic,
	"struct": TokStruct, "switch": TokSwitch, "typedef": TokTypedef,
	"union": TokUnion, "unsigned": TokUnsigned, "void": TokVoid,
	"volatile": TokVolatile, "while": TokWhile,
}

// Pos is a source position: file, 1-based line, 1-based column.
type Pos struct {
	File string
	Line int
	Col  int
}

// String renders the position as file:line:col.
func (p Pos) String() string {
	var buf [64]byte
	return string(AppendPos(buf[:0], p))
}

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexical token. It carries its line and column but
// not its file: every token of a stream shares one, which the parser
// puts into the Pos of each node it builds.
type Token struct {
	Kind      TokKind
	Text      string // raw spelling for identifiers and literals
	Line, Col int32
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case TokIdent, TokIntLit, TokFloatLit, TokCharLit, TokStringLit:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
