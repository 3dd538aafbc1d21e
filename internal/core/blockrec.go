package core

// This file records one traversal of one block for its summary edges
// (§5.2), carving its lists from the engine's tuple stack.

// blockRec tracks one traversal of one block so its summary edges can
// be recorded at block end. Instances are told apart by (v, obj), not
// by pointer, so the recorder survives state cloning at mid-block call
// forks; the live set is a handful, so the lists are scanned.
type blockRec struct {
	entryG int32
	fp     uint32
	// entry holds the tuple of every instance active at block entry, with
	// the id the cache check found: a cap-limited frame of the engine's
	// tuple stack (enter, start), valid until the traversal that carved
	// it returns. Nothing but a missing id is written to it after.
	entry []Tuple
	// kills holds a stop tuple per instance removed during the block, in
	// order: the last one for an entry instance ends its transition edge,
	// the others are instances created and then killed within the block
	// (add edges ending in stop). It is the frame of the tuple stack from
	// killBase up, on top of the stack whenever a kill is noted.
	kills    []Tuple
	killBase int
}

func sameObj(t *Tuple, v, obj int32) bool { return t.v == v && t.obj == obj }

// lastOf returns the last tuple of the list about the object, or nil.
func lastOf(ts []Tuple, v, obj int32) *Tuple {
	for i := len(ts) - 1; i >= 0; i-- {
		if sameObj(&ts[i], v, obj) {
			return &ts[i]
		}
	}
	return nil
}

// enter pushes an entry tuple onto the engine's tuple stack, whose
// frame from base up is a block's entry list in the making, and returns
// the stack; a later instance of the same object replaces the earlier
// one's tuple.
func enter(stack []Tuple, base int, t Tuple) []Tuple {
	if prev := lastOf(stack[base:], t.v, t.obj); prev != nil {
		*prev = t
		return stack
	}
	return append(stack, t)
}

// start fills in the traversal record, which is a local of
// traverseBlock ("rec does not escape", -gcflags=-m), with the entry
// list entered on the engine's tuple stack from base up; the kill list
// starts empty above it. Most traversals of most blocks carry no active
// instances and kill nothing, and then the record allocates nothing; the
// others reuse the stack's array.
func (rec *blockRec) start(g int32, fp uint32, stack []Tuple, base int) {
	rec.entryG, rec.fp = g, fp
	rec.entry = stack[base:len(stack):len(stack)]
	rec.killBase = len(stack)
}

// noteKill records an instance's removal for summary generation. The
// record's kill list is the top of the engine's tuple stack: whatever a
// followed call or a forked continuation pushed above it since its last
// kill has been popped. So the stop tuple is pushed and the list
// re-carved over it.
func (en *Engine) noteKill(rec *blockRec, g int32, in *Instance) {
	if len(en.tuples) != rec.killBase+len(rec.kills) {
		panic("core: a block's kill list is not on top of the tuple stack")
	}
	en.tuples = append(en.tuples, Tuple{tupleKey: tupleKey{g: g, v: in.v, val: symStop, obj: in.obj}, ObjExpr: in.ObjExpr})
	rec.kills = en.tuples[rec.killBase:len(en.tuples):len(en.tuples)]
}

// fork copies a record for a forked continuation of its block: the
// entry list is shared, the kill list copied to the top of the tuple
// stack, where the continuation's own kills grow. The caller pops the
// copy (popTuples) when the continuation returns.
func (en *Engine) fork(r *blockRec) blockRec {
	c := *r
	c.killBase = len(en.tuples)
	en.tuples = append(en.tuples, r.kills...)
	c.kills = en.tuples[c.killBase:len(en.tuples):len(en.tuples)]
	return c
}

// popTuples pops and clears the tuple stack down to base.
func (en *Engine) popTuples(base int) {
	clear(en.tuples[base:])
	en.tuples = en.tuples[:base]
}
