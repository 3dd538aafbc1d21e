package cc

import "slices"

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *Parser) parseCompoundStmt() (*CompoundStmt, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	cs := newNode(p, CompoundStmt{P: p.at(lb)})
	p.pushScope()
	defer p.popScope()
	start := len(p.stmts)
	for p.cur().Kind != TokRBrace {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	p.next() // }
	cs.List = popList(p, &p.stmts, start)
	return cs, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case TokLBrace:
		return p.parseCompoundStmt()
	case TokSemi:
		p.next()
		return &EmptyStmt{P: p.at(t)}, nil
	case TokIf:
		p.next()
		cond, err := p.parseParenExpr()
		if err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept(TokElse) {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return newNode(p, IfStmt{P: p.at(t), Cond: cond, Then: then, Else: els}), nil
	case TokWhile:
		p.next()
		cond, err := p.parseParenExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return newNode(p, WhileStmt{P: p.at(t), Cond: cond, Body: body}), nil
	case TokDo:
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokWhile); err != nil {
			return nil, err
		}
		cond, err := p.parseParenExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &DoWhileStmt{P: p.at(t), Body: body, Cond: cond}, nil
	case TokFor:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		fs := newNode(p, ForStmt{P: p.at(t)})
		p.pushScope()
		defer p.popScope()
		if !p.accept(TokSemi) {
			if p.startsDeclSpecifiers() {
				ds, err := p.parseBlockDecl()
				if err != nil {
					return nil, err
				}
				fs.Init = ds
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fs.Init = newNode(p, ExprStmt{P: e.Pos(), X: e})
				if _, err := p.expect(TokSemi); err != nil {
					return nil, err
				}
			}
		}
		if p.cur().Kind != TokSemi {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fs.Cond = cond
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		if p.cur().Kind != TokRParen {
			post, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fs.Post = post
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		fs.Body = body
		return fs, nil
	case TokSwitch:
		p.next()
		tag, err := p.parseParenExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &SwitchStmt{P: p.at(t), Tag: tag, Body: body}, nil
	case TokCase:
		p.next()
		val, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return newNode(p, CaseStmt{P: p.at(t), Val: val, Body: body}), nil
	case TokDefault:
		p.next()
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return newNode(p, CaseStmt{P: p.at(t), Body: body}), nil
	case TokBreak:
		p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return newNode(p, BreakStmt{P: p.at(t)}), nil
	case TokContinue:
		p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ContinueStmt{P: p.at(t)}, nil
	case TokReturn:
		p.next()
		rs := newNode(p, ReturnStmt{P: p.at(t)})
		if p.cur().Kind != TokSemi {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.X = e
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return rs, nil
	case TokGoto:
		p.next()
		lbl, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &GotoStmt{P: p.at(t), Label: p.text(lbl)}, nil
	case TokIdent:
		// Label?
		if p.la(1).Kind == TokColon {
			if slices.Contains(p.labels, p.text(t)) {
				return nil, p.errf("duplicate label %s", p.text(t))
			}
			name := p.text(p.next())
			p.labels = append(p.labels, name)
			p.next() // :
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return &LabeledStmt{P: p.at(t), Label: name, Body: body}, nil
		}
	}
	if p.startsDeclSpecifiers() {
		return p.parseBlockDecl()
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return newNode(p, ExprStmt{P: e.Pos(), X: e}), nil
}

// parseBlockDecl parses a block-scope declaration statement (including
// the trailing semicolon).
func (p *Parser) parseBlockDecl() (*DeclStmt, error) {
	ds := newNode(p, DeclStmt{P: p.at(p.cur())})
	storage, base, err := p.parseDeclSpecifiers()
	if err != nil {
		return nil, err
	}
	if p.accept(TokSemi) {
		return ds, nil // struct/enum definition with no declarator
	}
	start := len(p.params)
	defer func() { clear(p.params[start:]); p.params = p.params[:start] }()
	if err := p.initDeclarators(storage, base, false); err != nil {
		return nil, err
	}
	ds.Decls = popList(p, &p.params, start)
	return ds, nil
}
