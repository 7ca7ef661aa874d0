// Package fixture is the reachability gate's self-test: a tree whose
// orphans are known. The gate's own test loads it with cmd/fix as the
// only main; the comment on each declaration says what the gate must
// conclude.
package fixture

import "fmt"

// Counted is live: main calls it.
func Counted() int { return helper() }

// helper is live: only live Counted calls it.
func helper() int { return 1 }

// Orphan is flagged: nothing calls it.
func Orphan() int { return onlyOrphanUses() }

// onlyOrphanUses is flagged: its one caller is an orphan.
func onlyOrphanUses() int { return 2 }

// Named is live; its String is cleared because Named satisfies
// fmt.Stringer, though only fmt calls it.
type Named struct{ n int }

func (n Named) String() string { return fmt.Sprint(n.n) }

// Fault is live; its Error is cleared through the universe's error and
// its Unwrap through the method set errors.Unwrap looks for.
type Fault struct{ cause error }

func (f Fault) Error() string { return "fault" }
func (f Fault) Unwrap() error { return f.cause }

// Shape is an interface declared in the tree; Square.Area is cleared
// through it.
type Shape interface{ Area() int }

type Square struct{ side int }

func (s Square) Area() int { return s.side * s.side }

// Sized is live, but its Size is flagged: no interface declares it and
// nothing calls it.
type Sized struct{}

func (Sized) Size() int { return 0 }

// Box is generic: Get is cleared through main's Box[int], Unused is
// flagged.
type Box[T any] struct{ v T }

func (b *Box[T]) Get() T    { return b.v }
func (b *Box[T]) Unused() T { return b.v }

// deadCycleA and deadCycleB call each other and nothing enters them:
// both are flagged.
func deadCycleA(n int) int {
	if n == 0 {
		return 0
	}
	return deadCycleB(n - 1)
}

func deadCycleB(n int) int { return deadCycleA(n) }

// OrphanVar's initializer runs, so initVar is live, but nothing reads
// OrphanVar: it is flagged.
var OrphanVar = initVar()

func initVar() int { return 3 }

// OrphanType is mentioned only by its own method, which nothing calls:
// the type, the method and the method's callee are all flagged.
type OrphanType struct{}

func (OrphanType) Method() int { return orphanTypeInternal() }

func orphanTypeInternal() int { return 4 }
