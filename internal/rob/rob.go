// Package rob implements the linked-list reorder buffer of paper §4.3: an
// intrusive doubly-linked list that supports removing and inserting
// instructions in the middle of the stream (selective flush and correct-
// path splicing), plus block-partitioning overhead accounting (gaps and
// padding) for the blocked variant of Fig. 3/Fig. 8.
//
// The list stores logical instruction order; physical capacity (entry
// counts and block gaps) is tracked by Space. Keeping them separate
// mirrors the hardware split between the ROB's ordering function and its
// storage function.
package rob

// Node is one ROB entry holding a value of type T (the core's uop).
type Node[T any] struct {
	Prev, Next *Node[T]
	Val        T
	linked     bool
}

// InList reports whether the node is currently linked.
func (n *Node[T]) InList() bool { return n.linked }

// List is the linked-list ROB. The zero value is an empty list.
type List[T any] struct {
	head, tail *Node[T]
	count      int
}

// Len returns the number of linked entries.
func (l *List[T]) Len() int { return l.count }

// Head returns the oldest entry, or nil.
func (l *List[T]) Head() *Node[T] { return l.head }

// Tail returns the youngest entry, or nil.
func (l *List[T]) Tail() *Node[T] { return l.tail }

// PushBack appends n as the youngest entry.
func (l *List[T]) PushBack(n *Node[T]) {
	if n.linked {
		panic("rob: PushBack of linked node")
	}
	n.Prev = l.tail
	n.Next = nil
	if l.tail != nil {
		l.tail.Next = n
	} else {
		l.head = n
	}
	l.tail = n
	n.linked = true
	l.count++
}

// InsertAfter links n immediately after pos (correct-path splicing: the
// resolved path is inserted in the middle of the stream, Fig. 2(c,d)).
func (l *List[T]) InsertAfter(pos, n *Node[T]) {
	if n.linked {
		panic("rob: InsertAfter of linked node")
	}
	if !pos.linked {
		panic("rob: InsertAfter at unlinked position")
	}
	n.Prev = pos
	n.Next = pos.Next
	if pos.Next != nil {
		pos.Next.Prev = n
	} else {
		l.tail = n
	}
	pos.Next = n
	n.linked = true
	l.count++
}

// Remove unlinks n (selective flush of one entry, or commit of the head).
func (l *List[T]) Remove(n *Node[T]) {
	if !n.linked {
		panic("rob: Remove of unlinked node")
	}
	if n.Prev != nil {
		n.Prev.Next = n.Next
	} else {
		l.head = n.Next
	}
	if n.Next != nil {
		n.Next.Prev = n.Prev
	} else {
		l.tail = n.Prev
	}
	n.Prev, n.Next = nil, nil
	n.linked = false
	l.count--
}

// RemoveRangeAfter unlinks every entry younger than n (conventional full
// flush after a mispredicted branch) and appends them to out
// oldest-first, so a caller can reuse one buffer across flushes.
func (l *List[T]) RemoveRangeAfter(n *Node[T], out []*Node[T]) []*Node[T] {
	for cur := n.Next; cur != nil; {
		next := cur.Next
		l.Remove(cur)
		out = append(out, cur)
		cur = next
	}
	return out
}

// Walk calls f on each entry oldest-first; stops early if f returns false.
func (l *List[T]) Walk(f func(*Node[T]) bool) {
	for cur := l.head; cur != nil; cur = cur.Next {
		if !f(cur) {
			return
		}
	}
}

// Check validates list invariants (test helper): consistent prev/next
// links, head/tail endpoints, and the count.
func (l *List[T]) Check() bool {
	n := 0
	var prev *Node[T]
	for cur := l.head; cur != nil; cur = cur.Next {
		if cur.Prev != prev || !cur.linked {
			return false
		}
		prev = cur
		n++
		if n > l.count {
			return false
		}
	}
	return prev == l.tail && n == l.count
}
