package sparse

import "slices"

// Operator is the storage-agnostic interface every solver algorithm in the
// tree is written against: Krylov methods, smoothers, the multigrid cycle
// and the parallel kernels only need a matrix-vector product, a residual,
// a diagonal and a handful of size queries. CSR, BSR and the matrix-free
// element-by-element operator all implement it; new storage formats slot
// in behind the same interface without touching the algorithms. This is
// the PETSc Mat-object decoupling that let the paper swap AIJ for the
// blocked BAIJ format and collect the per-processor Mflop gains.
//
// Anything beyond the core apply is a capability, not a requirement:
// consumers that need row access, diagonal blocks or a SOR sweep assert
// the corresponding optional interface (RowScanner, BlockDiagonaler,
// Sweeper) and degrade gracefully when the operator does not provide it.
// That split is what lets an assembly-free operator participate in the
// whole stack without faking entry lookups it cannot afford.
type Operator interface {
	// Rows and Cols return the operator's dimensions.
	Rows() int
	Cols() int
	// MulVec computes y = A·x.
	MulVec(x, y []float64)
	// MulVecRange computes y[i] = (A·x)[i] for i in [lo, hi); rows outside
	// the range are left untouched. It is the kernel for row-partitioned
	// parallel products.
	MulVecRange(x, y []float64, lo, hi int)
	// Residual computes r = b - A·x.
	Residual(b, x, r []float64)
	// Diag returns a freshly allocated copy of the diagonal (zeros where
	// absent).
	Diag() []float64
	// NNZ returns the number of stored scalar entries (explicit zeros
	// included).
	NNZ() int
	// MulVecFlops returns the flop count of one MulVec (2·nnz by the
	// paper's convention).
	MulVecFlops() int64
}

// RowScanner is the row-access capability: entry lookup for code that
// genuinely needs to inspect stored values (setup-time graph work, tests,
// diagnostics). Matrix-free operators deliberately do not implement it —
// an entry query would cost a partial element loop — so consumers must
// treat it as optional and fall back to apply-only algorithms.
type RowScanner interface {
	// At returns A(i,j), zero when the entry is not stored.
	At(i, j int) float64
}

// BlockDiagonaler is the node-block diagonal capability: storages that
// know their b-by-b diagonal blocks expose them for block smoothers
// (NodeBlockJacobi) without the smoother asserting a concrete type.
type BlockDiagonaler interface {
	// BlockSize returns the scalar block dimension b.
	BlockSize() int
	// DiagBlocks returns a copy of the BxB diagonal blocks, packed
	// row-major per block in block-row order. Implementations that are
	// not node-aligned return nil.
	DiagBlocks() []float64
}

// Sweeper is the SOR-sweep capability: storages with ordered row
// traversal provide the Gauss-Seidel kernel themselves, so the smoother
// package never reaches into storage internals. Operators without row
// order (matrix-free) do not implement it; smoothing falls back to
// apply-only methods (Jacobi, Chebyshev).
type Sweeper interface {
	// SORSweep performs one forward (backward=false) or backward sweep of
	// x for A·x = b in place and returns the flop count. invBlk holds the
	// inverted diagonal blocks for blocked storages (ignored by scalar
	// storages); scratch is a caller-provided buffer of at least
	// BlockSize() float64s for the per-block right-hand side.
	SORSweep(x, b []float64, omega float64, backward bool, invBlk, scratch []float64) int64
}

// GalerkinAssembler is the coarse-operator capability: operators that can
// form the Galerkin product R·A·Rᵀ directly implement it, so multigrid
// setup on a matrix-free fine level assembles the first coarse matrix
// from element contributions without ever assembling the fine matrix.
type GalerkinAssembler interface {
	// AssembleGalerkin returns R·A·Rᵀ as an assembled CSR for the given
	// restriction R (rows = coarse dofs, cols = fine dofs).
	AssembleGalerkin(r *CSR) *CSR
}

// StorageLabeler is the observability capability: external storage
// formats report the short label ("mf") used in level tables and event
// names, so the multigrid package does not need to know them by type.
type StorageLabeler interface {
	// StorageLabel returns the short storage-mode label.
	StorageLabel() string
}

// ByteAccounter is the memory-accounting capability: external storage
// formats report their resident bytes so StorageBytes covers them
// without a concrete-type switch.
type ByteAccounter interface {
	// StorageBytes returns the resident bytes of the operator's arrays.
	StorageBytes() int64
}

// Compile-time interface conformance for both assembled storage
// formats, and for the capabilities each provides.
var (
	_ Operator = (*CSR)(nil)
	_ Operator = (*BSR)(nil)

	_ RowScanner = (*CSR)(nil)
	_ RowScanner = (*BSR)(nil)

	_ BlockDiagonaler = (*BSR)(nil)
)

// StorageBytes reports the bytes one storage format holds resident per
// operator: values, column indices and row pointers. It feeds the
// bytes/dof accounting of the storage-mode gates and of bench/;
// unsupported operator types count only what the Operator interface
// exposes (8 bytes per stored entry).
func StorageBytes(op Operator) int64 {
	switch a := op.(type) {
	case *CSR:
		return int64(8*len(a.Val) + 8*len(a.ColIdx) + 8*len(a.RowPtr))
	case *BSR:
		return int64(8*len(a.Val) + 8*len(a.ColIdx) + 8*len(a.RowPtr))
	default:
		return 8 * int64(op.NNZ())
	}
}

// AsCSR returns a scalar CSR view of op: the identity for *CSR, the
// expanded scalar matrix for *BSR. It is the escape hatch for setup-time
// code that genuinely needs row traversal (graph partitioning, direct
// factorization, submatrix extraction); steady-state kernels should stay
// on the Operator interface.
func AsCSR(op Operator) *CSR {
	c, ok := TryCSR(op)
	if !ok {
		panic("sparse: AsCSR: operator has no assembled CSR view")
	}
	return c
}

// TryCSR is AsCSR with a graceful failure: it returns (nil, false) for
// operators without an assembled scalar view (matrix-free storage), so
// setup-time consumers can report a configuration error instead of
// panicking.
func TryCSR(op Operator) (*CSR, bool) {
	switch a := op.(type) {
	case *CSR:
		return a, true
	case *BSR:
		return a.ToCSR(), true
	default:
		return nil, false
	}
}

// AutoBlock returns the preferred storage for a square scalar matrix with b
// dofs per node: the node-blocked BSR when the dimensions are b-divisible
// and blocking does not bloat the pattern (fill beyond 2x the scalar nnz
// means the sparsity is not node-aligned), the original CSR otherwise.
// Matrices assembled per node pair (the elasticity stack) block with zero
// fill; b <= 1 or misaligned patterns fall back to CSR unchanged. It is
// PlanBlock and FillFromCSR in one.
func AutoBlock(a *CSR, b int) Operator {
	if t := PlanBlock(a, b); t != nil {
		return t.FillFromCSR(a)
	}
	return a
}

// PlanBlock is AutoBlock's decision, which reads only the pattern: the
// blocked pattern (no values) when AutoBlock blocks a, nil when it keeps
// CSR.
func PlanBlock(a *CSR, b int) *BSR {
	if b <= 1 || a.NRows != a.NCols || a.NRows%b != 0 {
		return nil
	}
	t, err := BlockPattern(a, b)
	if err != nil || t.NNZ() > 2*a.NNZ() {
		return nil
	}
	return t
}

// Entries is an assembled operator's pattern in scalar rows, together with
// where each entry's value sits in the operator's value array: what setup
// plans on for either storage — the smoother's partition graph and block
// gathers, the coarse factorization's profile — without a scalar copy of
// the values.
type Entries struct {
	NRows, NCols   int
	RowPtr, ColIdx []int
	// Src[k] is the index in Values(op) of entry k; nil means k itself.
	Src []int
}

// EntriesOf returns op's Entries. Only the pattern is read, so a
// pattern-only operator (nil Val) is fine; on BSR the scalar rows are the
// ToCSR expansion.
func EntriesOf(op Operator) *Entries {
	switch a := op.(type) {
	case *CSR:
		return &Entries{NRows: a.NRows, NCols: a.NCols, RowPtr: a.RowPtr, ColIdx: a.ColIdx}
	case *BSR:
		c := a.ScalarPattern()
		b := a.B
		src := make([]int, len(c.ColIdx))
		n := 0
		for ib := 0; ib < a.NBRows; ib++ {
			for d := 0; d < b; d++ {
				for k := a.RowPtr[ib]; k < a.RowPtr[ib+1]; k++ {
					for cc := 0; cc < b; cc++ {
						src[n] = (k*b+d)*b + cc
						n++
					}
				}
			}
		}
		return &Entries{NRows: c.NRows, NCols: c.NCols, RowPtr: c.RowPtr, ColIdx: c.ColIdx, Src: src}
	default:
		panic("sparse: EntriesOf needs an assembled operator (CSR or BSR)")
	}
}

// ScalarPatternOf returns op's pattern in scalar rows as a CSR with no
// values: a CSR's own index arrays, the ToCSR expansion of a BSR.
func ScalarPatternOf(op Operator) *CSR {
	switch a := op.(type) {
	case *CSR:
		return &CSR{NRows: a.NRows, NCols: a.NCols, RowPtr: a.RowPtr, ColIdx: a.ColIdx}
	case *BSR:
		return a.ScalarPattern()
	default:
		panic("sparse: ScalarPatternOf needs an assembled operator (CSR or BSR)")
	}
}

// Values returns the value array of an assembled operator, the array
// Entries.Src indexes.
func Values(op Operator) []float64 {
	switch a := op.(type) {
	case *CSR:
		return a.Val
	case *BSR:
		return a.Val
	default:
		panic("sparse: Values needs an assembled operator (CSR or BSR)")
	}
}

// PatternOf returns an assembled operator's pattern: the same storage
// and dimensions sharing its index arrays, with no values.
func PatternOf(op Operator) Operator {
	switch a := op.(type) {
	case *CSR:
		return &CSR{NRows: a.NRows, NCols: a.NCols, RowPtr: a.RowPtr, ColIdx: a.ColIdx}
	case *BSR:
		return &BSR{NBRows: a.NBRows, NBCols: a.NBCols, B: a.B, RowPtr: a.RowPtr, ColIdx: a.ColIdx}
	default:
		panic("sparse: PatternOf needs an assembled operator (CSR or BSR)")
	}
}

// SamePattern reports whether a and b are the same storage with the same
// dimensions and, index for index, the same pattern — compared entry by
// entry even when the two share their arrays. Values are not compared.
func SamePattern(a, b Operator) bool {
	switch x := a.(type) {
	case *CSR:
		y, ok := b.(*CSR)
		return ok && x.NRows == y.NRows && x.NCols == y.NCols &&
			slices.Equal(x.RowPtr, y.RowPtr) && slices.Equal(x.ColIdx, y.ColIdx)
	case *BSR:
		y, ok := b.(*BSR)
		return ok && x.NBRows == y.NBRows && x.NBCols == y.NBCols && x.B == y.B &&
			slices.Equal(x.RowPtr, y.RowPtr) && slices.Equal(x.ColIdx, y.ColIdx)
	default:
		return false
	}
}

// Expands reports whether c's pattern is exactly the ToCSR expansion of
// t's — every entry of every block, rows and columns in order — compared
// index for index.
func (t *BSR) Expands(c *CSR) bool {
	b := t.B
	if c.NRows != t.Rows() || c.NCols != t.Cols() || len(c.ColIdx) != t.NNZ() {
		return false
	}
	k := 0
	for ib := 0; ib < t.NBRows; ib++ {
		blockCols := t.ColIdx[t.RowPtr[ib]:t.RowPtr[ib+1]]
		for i := ib * b; i < ib*b+b; i++ {
			if c.RowPtr[i] != k {
				return false
			}
			for _, jb := range blockCols {
				for j := jb * b; j < jb*b+b; j++ {
					if c.ColIdx[k] != j {
						return false
					}
					k++
				}
			}
		}
	}
	return c.RowPtr[c.NRows] == k
}
