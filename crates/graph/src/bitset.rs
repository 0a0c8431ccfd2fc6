//! Fixed-capacity bitsets for vertex sets, with inline 256-bit-block
//! storage and fused wide-word kernels.
//!
//! Sets with capacity ≤ 256 store a single `[u64; 4]` block inline: no
//! heap allocation at all, which makes cloning a state full of vertex
//! sets — the dominant cost of donating a work unit in the parallel
//! search — allocation-free per set. Because the inline block has a
//! *statically known* size, every kernel's inline arm is a branch-free
//! straight-line expression over whole `[u64; 4]` blocks (the `#[inline]`
//! block helpers at the bottom of this file) that the autovectorizer
//! lowers to single 256-bit SIMD operations — no slice length arithmetic,
//! no bounds checks, no loop control. Capacities beyond 256 fall back to
//! a heap vector of words; those kernels run a main loop of whole blocks
//! via `chunks_exact(4)` plus a scalar word tail.
//!
//! The price of padded inline storage is a strict *tail invariant*: every
//! bit at position ≥ `capacity` — including whole padding words — is
//! always zero, so counts, scans, and iteration can walk the padded block
//! without masking. Every mutating kernel re-checks the invariant under
//! `debug_assertions`.

/// Words per block: the kernel main loops advance four `u64`s at a time.
const BLOCK_WORDS: usize = 4;
/// Bits per block — also the largest capacity stored inline.
const BLOCK_BITS: usize = BLOCK_WORDS * 64;

/// One 256-bit block, the unit of the fused kernels' inline arms.
type Block = [u64; BLOCK_WORDS];

/// Word storage: a single inline block for capacities up to
/// [`BLOCK_BITS`], a heap vector of exactly `capacity.div_ceil(64)` words
/// beyond.
#[derive(Clone)]
enum Store {
    /// Capacities `0..=256`: the block lives inside the set itself.
    /// Padding bits above the capacity are kept zero (tail invariant).
    Inline(Block),
    /// Larger capacities: `capacity.div_ceil(64)` words on the heap.
    Heap(Vec<u64>),
}

/// A fixed-capacity set of small integers backed by `u64` words, stored
/// inline as a single 256-bit block for capacities up to 256.
///
/// `BitSet` is the workhorse vertex-set representation of this crate: all
/// graph algorithms here operate on graphs with at most a few hundred
/// vertices, where a flat word array beats any pointer-based set. Sets with
/// capacity ≤ 256 are stored inline — creating or cloning them never
/// allocates.
///
/// Beyond the classic in-place operations, the set exposes *fused kernels*
/// ([`BitSet::intersect_into`], [`BitSet::and_not_next`],
/// [`BitSet::majority_into`], [`BitSet::intersect2_union_into`], …) that
/// compute a multi-operand expression in a single pass over the words
/// instead of materializing intermediates.
///
/// # Invariant
///
/// Bits at positions `>= capacity` are always zero (the *tail invariant*),
/// including the padding words of the inline block; every mutating kernel
/// re-checks it under `debug_assertions`.
///
/// # Example
///
/// ```
/// use recopack_graph::BitSet;
///
/// let mut s = BitSet::new(70);
/// s.insert(3);
/// s.insert(69);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 69]);
/// ```
#[derive(Clone)]
pub struct BitSet {
    store: Store,
    capacity: usize,
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        // Equal capacities imply the same storage variant and word count
        // (layout is a function of capacity), and padding is zero on both
        // sides, so the raw word comparison is sound.
        self.capacity == other.capacity && self.words() == other.words()
    }
}

impl Eq for BitSet {}

impl std::hash::Hash for BitSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.capacity.hash(state);
        self.words().hash(state);
    }
}

impl BitSet {
    /// Creates an empty set able to hold values `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let store = if capacity <= BLOCK_BITS {
            Store::Inline([0; BLOCK_WORDS])
        } else {
            Store::Heap(vec![0; capacity.div_ceil(64)])
        };
        Self { store, capacity }
    }

    /// Creates a set containing all of `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in s.words_mut() {
            *w = !0;
        }
        s.trim();
        s.debug_check_tail();
        s
    }

    /// The backing words, low bits first — the whole padded block for
    /// inline sets (padding is zero by the tail invariant), the exact
    /// word count for heap sets. No per-call arithmetic: this is the
    /// accessor the single-set loops run on.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.store {
            Store::Inline(block) => block,
            Store::Heap(words) => words,
        }
    }

    /// Mutable view of the backing words (padded for inline sets; callers
    /// must preserve the tail invariant).
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.store {
            Store::Inline(block) => block,
            Store::Heap(words) => words,
        }
    }

    /// Zeroes every bit at position `>= capacity` — the partial word and,
    /// for inline sets, the whole padding words above it.
    fn trim(&mut self) {
        let capacity = self.capacity;
        for (wi, w) in self.words_mut().iter_mut().enumerate() {
            let base = wi * 64;
            if base >= capacity {
                *w = 0;
            } else if base + 64 > capacity {
                *w &= !0 >> (base + 64 - capacity);
            }
        }
    }

    /// Debug check of the tail invariant: no bit at any position
    /// `>= capacity` is set, padding words included. Every mutating kernel
    /// calls this before returning.
    #[inline]
    fn debug_check_tail(&self) {
        #[cfg(debug_assertions)]
        {
            let capacity = self.capacity;
            for (wi, &w) in self.words().iter().enumerate() {
                let base = wi * 64;
                let masked = if base >= capacity {
                    w
                } else if base + 64 > capacity {
                    w & !(!0 >> (base + 64 - capacity))
                } else {
                    0
                };
                debug_assert_eq!(
                    masked, 0,
                    "tail invariant violated: bits above capacity {capacity} in word {wi}"
                );
            }
        }
    }

    /// Inserts `i`, returning whether it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let bit = 1u64 << (i % 64);
        // `i < capacity <= 256` makes the masked index exact for the
        // inline arm while keeping it provably in bounds (no panic path).
        let w = match &mut self.store {
            Store::Inline(block) => &mut block[(i / 64) % BLOCK_WORDS],
            Store::Heap(words) => &mut words[i / 64],
        };
        let was = *w & bit != 0;
        *w |= bit;
        !was
    }

    /// Removes `i`, returning whether it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let bit = 1u64 << (i % 64);
        let w = match &mut self.store {
            Store::Inline(block) => &mut block[(i / 64) % BLOCK_WORDS],
            Store::Heap(words) => &mut words[i / 64],
        };
        let was = *w & bit != 0;
        *w &= !bit;
        was
    }

    /// Tests membership of `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let w = match &self.store {
            Store::Inline(block) => block[(i / 64) % BLOCK_WORDS],
            Store::Heap(words) => words[i / 64],
        };
        w & (1 << (i % 64)) != 0
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    #[inline]
    pub fn clear(&mut self) {
        match &mut self.store {
            Store::Inline(block) => *block = [0; BLOCK_WORDS],
            Store::Heap(words) => words.fill(0),
        }
    }

    /// In-place intersection with `other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        match (&mut self.store, &other.store) {
            (Store::Inline(a), Store::Inline(b)) => *a = block_and(*a, *b),
            (a, b) => {
                for (x, y) in raw_mut(a).iter_mut().zip(raw(b)) {
                    *x &= y;
                }
            }
        }
        self.debug_check_tail();
    }

    /// In-place union with `other`.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        match (&mut self.store, &other.store) {
            (Store::Inline(a), Store::Inline(b)) => *a = block_or(*a, *b),
            (a, b) => {
                for (x, y) in raw_mut(a).iter_mut().zip(raw(b)) {
                    *x |= y;
                }
            }
        }
        self.debug_check_tail();
    }

    /// In-place difference: removes every element of `other`.
    #[inline]
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        match (&mut self.store, &other.store) {
            (Store::Inline(a), Store::Inline(b)) => *a = block_andnot(*a, *b),
            (a, b) => {
                for (x, y) in raw_mut(a).iter_mut().zip(raw(b)) {
                    *x &= !y;
                }
            }
        }
        self.debug_check_tail();
    }

    /// Returns the intersection as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Fused kernel: overwrites `self` with `a & b` in one pass — the
    /// clone-free replacement for `copy_from(a)` + `intersect_with(b)`.
    ///
    /// All three sets must share a capacity (debug-asserted).
    #[inline]
    pub fn intersect_into(&mut self, a: &BitSet, b: &BitSet) {
        debug_assert_eq!(self.capacity, a.capacity);
        debug_assert_eq!(self.capacity, b.capacity);
        match (&mut self.store, &a.store, &b.store) {
            (Store::Inline(d), Store::Inline(x), Store::Inline(y)) => *d = block_and(*x, *y),
            (d, x, y) => {
                let (d, x, y) = (raw_mut(d), raw(x), raw(y));
                let mut dc = d.chunks_exact_mut(BLOCK_WORDS);
                let mut xc = x.chunks_exact(BLOCK_WORDS);
                let mut yc = y.chunks_exact(BLOCK_WORDS);
                for ((dw, xw), yw) in (&mut dc).zip(&mut xc).zip(&mut yc) {
                    block_store(dw, block_and(block_load(xw), block_load(yw)));
                }
                for ((dw, &xw), &yw) in dc
                    .into_remainder()
                    .iter_mut()
                    .zip(xc.remainder())
                    .zip(yc.remainder())
                {
                    *dw = xw & yw;
                }
            }
        }
        self.debug_check_tail();
    }

    /// Fused kernel: overwrites `self` with `a | b` in one pass — the
    /// clone-free replacement for `copy_from(a)` + `union_with(b)`.
    ///
    /// All three sets must share a capacity (debug-asserted).
    #[inline]
    pub fn union_into(&mut self, a: &BitSet, b: &BitSet) {
        debug_assert_eq!(self.capacity, a.capacity);
        debug_assert_eq!(self.capacity, b.capacity);
        match (&mut self.store, &a.store, &b.store) {
            (Store::Inline(d), Store::Inline(x), Store::Inline(y)) => *d = block_or(*x, *y),
            (d, x, y) => {
                for (dw, (&xw, &yw)) in raw_mut(d).iter_mut().zip(raw(x).iter().zip(raw(y))) {
                    *dw = xw | yw;
                }
            }
        }
        self.debug_check_tail();
    }

    /// Fused kernel: the smallest element `>= i` of `self \ other`, if any,
    /// without materializing the difference.
    ///
    /// Enables allocation-free "visit everything not yet seen" sweeps where
    /// `other` grows between steps (only at positions `< i`, which the
    /// cursor has passed).
    #[inline]
    pub fn and_not_next(&self, other: &BitSet, i: usize) -> Option<usize> {
        debug_assert_eq!(self.capacity, other.capacity);
        if i >= self.capacity {
            return None;
        }
        // Graphs in this workspace are frequently ≤ 64 vertices; a
        // single-word set scans in a handful of instructions, so skip the
        // padded-block walk entirely (`i < capacity <= 64` here). Matching
        // the stores keeps the word reads free of bounds checks.
        if let (Store::Inline(a), Store::Inline(b)) = (&self.store, &other.store) {
            if self.capacity <= 64 {
                let masked = (a[0] & !b[0]) & (!0u64 << (i % 64));
                return if masked != 0 {
                    Some(masked.trailing_zeros() as usize)
                } else {
                    None
                };
            }
        }
        let (a, b) = (self.words(), other.words());
        let (wi, bit) = (i / 64, i % 64);
        let masked = (a[wi] & !b[wi]) & (!0u64 << bit);
        if masked != 0 {
            return Some(wi * 64 + masked.trailing_zeros() as usize);
        }
        // Remaining words: the and-not combine keeps each step branch-free
        // until a nonzero difference word is found. Padding words of inline
        // sets are zero, so they can never yield a false positive.
        for (offset, (&wa, &wb)) in a[wi + 1..].iter().zip(&b[wi + 1..]).enumerate() {
            let diff = wa & !wb;
            if diff != 0 {
                return Some((wi + 1 + offset) * 64 + diff.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Fused kernel: overwrites `self` with the *majority* of three sets —
    /// `(a & b) | (a & c) | (b & c)`, every element in at least two of them
    /// — in one pass instead of three intersections and two unions.
    ///
    /// This is the candidate filter of the C4 scan: a live pattern has at
    /// most one open slot, so a candidate must sit in at least two of the
    /// three constraint rows.
    #[inline]
    pub fn majority_into(&mut self, a: &BitSet, b: &BitSet, c: &BitSet) {
        debug_assert_eq!(self.capacity, a.capacity);
        debug_assert_eq!(self.capacity, b.capacity);
        debug_assert_eq!(self.capacity, c.capacity);
        match (&mut self.store, &a.store, &b.store, &c.store) {
            (Store::Inline(d), Store::Inline(x), Store::Inline(y), Store::Inline(z)) => {
                *d = block_or(block_and(*x, *y), block_and(block_or(*x, *y), *z));
            }
            (d, x, y, z) => {
                for (dw, ((&xw, &yw), &zw)) in raw_mut(d)
                    .iter_mut()
                    .zip(raw(x).iter().zip(raw(y)).zip(raw(z)))
                {
                    *dw = (xw & yw) | ((xw | yw) & zw);
                }
            }
        }
        self.debug_check_tail();
    }

    /// Fused kernel: overwrites `self` with `(a & b) | (c & d)` in one
    /// pass — the shape of the D1 candidate scans, which intersect two
    /// row pairs and union the results.
    #[inline]
    pub fn intersect2_union_into(&mut self, a: &BitSet, b: &BitSet, c: &BitSet, d: &BitSet) {
        debug_assert_eq!(self.capacity, a.capacity);
        debug_assert_eq!(self.capacity, b.capacity);
        debug_assert_eq!(self.capacity, c.capacity);
        debug_assert_eq!(self.capacity, d.capacity);
        match (&mut self.store, &a.store, &b.store, &c.store, &d.store) {
            (
                Store::Inline(dst),
                Store::Inline(x),
                Store::Inline(y),
                Store::Inline(z),
                Store::Inline(w),
            ) => {
                *dst = block_or(block_and(*x, *y), block_and(*z, *w));
            }
            (dst, x, y, z, w) => {
                for (dw, (((&xw, &yw), &zw), &ww)) in raw_mut(dst)
                    .iter_mut()
                    .zip(raw(x).iter().zip(raw(y)).zip(raw(z)).zip(raw(w)))
                {
                    *dw = (xw & yw) | (zw & ww);
                }
            }
        }
        self.debug_check_tail();
    }

    /// Sum of `weights[v]` over the elements of the set, saturating at
    /// `u64::MAX`: a sum past `u64` reads `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `weights` is shorter than the capacity.
    #[inline]
    pub fn weight_sum(&self, weights: &[u64]) -> u64 {
        debug_assert!(weights.len() >= self.capacity);
        let mut sum = 0u64;
        if let Store::Inline(words) = &self.store {
            if self.capacity <= 64 {
                // Single-word arm: the bit-extraction loop never needs a
                // word index (tail invariant keeps `b < capacity`).
                let mut bits = words[0];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    sum = sum.saturating_add(weights[b]);
                }
                return sum;
            }
        }
        for (wi, &w) in self.words().iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                sum = sum.saturating_add(weights[wi * 64 + b]);
            }
        }
        sum
    }

    /// Fused kernel: overwrites `self` with `a & b` and returns the weight
    /// sum of the result (saturating, like [`BitSet::weight_sum`]) in the
    /// same pass — the clique search uses it to build a child candidate
    /// set together with its remaining-weight bound.
    #[inline]
    pub fn intersect_into_weight_sum(&mut self, a: &BitSet, b: &BitSet, weights: &[u64]) -> u64 {
        debug_assert_eq!(self.capacity, a.capacity);
        debug_assert_eq!(self.capacity, b.capacity);
        debug_assert!(weights.len() >= self.capacity);
        let mut sum = 0u64;
        match (&mut self.store, &a.store, &b.store) {
            // Single-word arm: padding words of `d` are already zero by
            // the tail invariant, so only word 0 needs writing.
            (Store::Inline(d), Store::Inline(x), Store::Inline(y)) if self.capacity <= 64 => {
                let w = x[0] & y[0];
                d[0] = w;
                let mut bits = w;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    sum = sum.saturating_add(weights[b]);
                }
            }
            (Store::Inline(d), Store::Inline(x), Store::Inline(y)) => {
                let w = block_and(*x, *y);
                *d = w;
                for (wi, &word) in w.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        sum = sum.saturating_add(weights[wi * 64 + b]);
                    }
                }
            }
            (d, x, y) => {
                for (wi, ((dw, &xw), &yw)) in
                    raw_mut(d).iter_mut().zip(raw(x)).zip(raw(y)).enumerate()
                {
                    let w = xw & yw;
                    *dw = w;
                    let mut bits = w;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        sum = sum.saturating_add(weights[wi * 64 + b]);
                    }
                }
            }
        }
        self.debug_check_tail();
        sum
    }

    /// Masked-row kernel: whether every element of `self` *below* `limit`
    /// is in `other`. Equivalent to
    /// `self.iter().take_while(|&v| v < limit).all(|v| other.contains(v))`
    /// but runs on whole words.
    #[inline]
    pub fn is_subset_below(&self, other: &BitSet, limit: usize) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        debug_assert!(limit <= self.capacity);
        let (a, b) = (self.words(), other.words());
        let (full, rem) = (limit / 64, limit % 64);
        for (&wa, &wb) in a.iter().zip(b).take(full) {
            if wa & !wb != 0 {
                return false;
            }
        }
        rem == 0 || (a[full] & !b[full]) & ((1u64 << rem) - 1) == 0
    }

    /// Whether every element of `self` is in `other`.
    #[inline]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    /// The smallest element `>= i`, if any.
    ///
    /// Enables allocation-free cursor iteration over a set that may be
    /// mutated between steps (unlike [`BitSet::iter`], which borrows the
    /// set for its whole lifetime):
    ///
    /// ```
    /// use recopack_graph::BitSet;
    ///
    /// let mut s = BitSet::new(10);
    /// s.extend([2, 5, 9]);
    /// let mut from = 0;
    /// let mut seen = Vec::new();
    /// while let Some(i) = s.next_at_or_after(from) {
    ///     from = i + 1;
    ///     seen.push(i);
    /// }
    /// assert_eq!(seen, vec![2, 5, 9]);
    /// ```
    #[inline]
    pub fn next_at_or_after(&self, i: usize) -> Option<usize> {
        if i >= self.capacity {
            return None;
        }
        // Single-word fast path, as in [`BitSet::and_not_next`].
        if let Store::Inline(words) = &self.store {
            if self.capacity <= 64 {
                let masked = words[0] & (!0u64 << (i % 64));
                return if masked != 0 {
                    Some(masked.trailing_zeros() as usize)
                } else {
                    None
                };
            }
        }
        let words = self.words();
        let (wi, b) = (i / 64, i % 64);
        let masked = words[wi] & (!0u64 << b);
        if masked != 0 {
            return Some(wi * 64 + masked.trailing_zeros() as usize);
        }
        for (offset, &w) in words[wi + 1..].iter().enumerate() {
            if w != 0 {
                return Some((wi + 1 + offset) * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Overwrites `self` with the contents of `other` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[inline]
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "copy_from requires equal capacities"
        );
        match (&mut self.store, &other.store) {
            (Store::Inline(a), Store::Inline(b)) => *a = *b,
            (a, b) => raw_mut(a).copy_from_slice(raw(b)),
        }
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words().first().copied().unwrap_or(0),
        }
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects elements into a set sized by the largest element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let b = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + b);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words().len() {
                return None;
            }
            self.current = self.set.words()[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

// --- store and block helpers --------------------------------------------
//
// Shared by the fused kernels above. The block helpers take or return a
// whole [`Block`]; bodies are branch-free element-wise expressions that
// the autovectorizer lowers to single wide-register instructions.

/// Raw word view of a store (fallback arms of the kernels).
#[inline]
fn raw(store: &Store) -> &[u64] {
    match store {
        Store::Inline(block) => block,
        Store::Heap(words) => words,
    }
}

/// Mutable raw word view of a store.
#[inline]
fn raw_mut(store: &mut Store) -> &mut [u64] {
    match store {
        Store::Inline(block) => block,
        Store::Heap(words) => words,
    }
}

/// Loads a block from a 4-word chunk.
#[inline]
fn block_load(chunk: &[u64]) -> Block {
    [chunk[0], chunk[1], chunk[2], chunk[3]]
}

/// Stores a block into a 4-word chunk.
#[inline]
fn block_store(chunk: &mut [u64], x: Block) {
    chunk[0] = x[0];
    chunk[1] = x[1];
    chunk[2] = x[2];
    chunk[3] = x[3];
}

/// Element-wise AND.
#[inline]
fn block_and(x: Block, y: Block) -> Block {
    [x[0] & y[0], x[1] & y[1], x[2] & y[2], x[3] & y[3]]
}

/// Element-wise AND-NOT (`x & !y`).
#[inline]
fn block_andnot(x: Block, y: Block) -> Block {
    [x[0] & !y[0], x[1] & !y[1], x[2] & !y[2], x[3] & !y[3]]
}

/// Element-wise OR.
#[inline]
fn block_or(x: Block, y: Block) -> Block {
    [x[0] | y[0], x[1] | y[1], x[2] | y[2], x[3] | y[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn full_and_complementy_ops_at_block_boundaries() {
        // The block-aligned layout keeps up to 255 slack bits; `full` and
        // every mutating kernel must keep them zero (the tail invariant) at
        // capacities straddling word and block boundaries.
        for cap in [0usize, 1, 63, 64, 65, 255, 256, 257, 511, 512, 513] {
            let full = BitSet::full(cap);
            assert_eq!(full.len(), cap, "capacity {cap}");
            if cap > 0 {
                assert!(full.contains(cap - 1));
            }
            assert!(!full.contains(cap));
            let mut s = BitSet::new(cap);
            s.copy_from(&full);
            s.intersect_with(&full);
            s.union_with(&full);
            s.difference_with(&BitSet::new(cap));
            assert_eq!(s.len(), cap, "capacity {cap} after kernels");
            let mut d = BitSet::new(cap);
            d.intersect_into(&full, &full);
            assert_eq!(d.len(), cap);
            d.union_into(&BitSet::new(cap), &full);
            assert_eq!(d.len(), cap);
            d.majority_into(&full, &full, &BitSet::new(cap));
            assert_eq!(d.len(), cap);
            d.intersect2_union_into(&full, &full, &BitSet::new(cap), &full);
            assert_eq!(d.len(), cap);
            assert_eq!(full.and_not_next(&full, 0), None);
            assert_eq!(
                full.and_not_next(&BitSet::new(cap), 0),
                if cap == 0 { None } else { Some(0) }
            );
        }
    }

    #[test]
    fn inline_and_heap_variants_agree() {
        // 256 is the last inline capacity, 257 the first heap one; the
        // same elements must behave identically in both.
        for cap in [256usize, 257] {
            let mut s = BitSet::new(cap);
            s.extend([0, 63, 64, 127, 128, 191, 192, 255]);
            assert_eq!(s.len(), 8);
            assert_eq!(s.iter().count(), 8);
            assert_eq!(s.next_at_or_after(193), Some(255));
            assert_eq!(s.next_at_or_after(256), None);
        }
        let mut big = BitSet::new(257);
        big.insert(256);
        assert_eq!(big.next_at_or_after(256), Some(256));
        assert_eq!(big.len(), 1);
    }

    #[test]
    fn set_operations() {
        let a: BitSet = [1, 2, 3, 64].into_iter().collect();
        let b: BitSet = [2, 3, 4].into_iter().collect();
        // FromIterator sizes by max element; re-create on common capacity.
        let mut a2 = BitSet::new(65);
        a2.extend(a.iter());
        let mut b2 = BitSet::new(65);
        b2.extend(b.iter());
        let i = a2.intersection(&b2);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);
        let mut u = a2.clone();
        u.union_with(&b2);
        assert_eq!(u.len(), 5);
        let mut d = a2.clone();
        d.difference_with(&b2);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 64]);
    }

    #[test]
    fn fused_kernels_match_composed_operations() {
        let mut a = BitSet::new(300);
        a.extend([0, 2, 64, 65, 130, 255, 256, 299]);
        let mut b = BitSet::new(300);
        b.extend([2, 3, 65, 131, 255, 299]);
        let mut c = BitSet::new(300);
        c.extend([0, 2, 3, 131, 256]);
        let mut d = BitSet::new(300);
        d.extend([0, 65, 131, 299]);

        let mut expect = a.intersection(&b);
        let mut got = BitSet::new(300);
        got.intersect_into(&a, &b);
        assert_eq!(got, expect);

        let mut union = a.clone();
        union.union_with(&b);
        got.union_into(&a, &b);
        assert_eq!(got, union);

        let mut diff = a.clone();
        diff.difference_with(&b);
        assert_eq!(a.and_not_next(&b, 0), diff.next_at_or_after(0));
        assert_eq!(a.and_not_next(&b, 65), diff.next_at_or_after(65));

        expect = a.intersection(&b);
        let mut t = a.intersection(&c);
        expect.union_with(&t);
        t = b.intersection(&c);
        expect.union_with(&t);
        got.majority_into(&a, &b, &c);
        assert_eq!(got, expect);

        expect = a.intersection(&b);
        t = c.intersection(&d);
        expect.union_with(&t);
        got.intersect2_union_into(&a, &b, &c, &d);
        assert_eq!(got, expect);

        let weights: Vec<u64> = (0..300).map(|v| v as u64 + 1).collect();
        assert_eq!(
            a.weight_sum(&weights),
            a.iter().map(|v| weights[v]).sum::<u64>()
        );
        let sum = got.intersect_into_weight_sum(&a, &b, &weights);
        assert_eq!(got, a.intersection(&b));
        assert_eq!(sum, got.iter().map(|v| weights[v]).sum::<u64>());
    }

    #[test]
    fn masked_below_kernels_match_iteration() {
        let mut a = BitSet::new(200);
        a.extend([1, 63, 64, 100, 199]);
        let mut b = BitSet::new(200);
        b.extend([1, 63, 64, 150]);
        for limit in [0usize, 1, 2, 63, 64, 65, 100, 101, 200] {
            let subset = a.iter().take_while(|&v| v < limit).all(|v| b.contains(v));
            assert_eq!(a.is_subset_below(&b, limit), subset, "limit {limit}");
        }
    }

    #[test]
    fn subset() {
        let mut a = BitSet::new(10);
        a.extend([1, 2]);
        let mut b = BitSet::new(10);
        b.extend([1, 2, 3]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
    }

    #[test]
    fn iteration_crosses_word_boundaries() {
        let mut s = BitSet::new(200);
        s.extend([0, 63, 64, 127, 128, 199]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 199]);
        assert_eq!(s.next_at_or_after(0), Some(0));
    }

    #[test]
    fn empty_set_has_no_first() {
        let s = BitSet::new(10);
        assert_eq!(s.next_at_or_after(0), None);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    #[test]
    fn next_at_or_after_scans_across_words() {
        let mut s = BitSet::new(200);
        s.extend([0, 63, 64, 127, 199]);
        assert_eq!(s.next_at_or_after(0), Some(0));
        assert_eq!(s.next_at_or_after(1), Some(63));
        assert_eq!(s.next_at_or_after(63), Some(63));
        assert_eq!(s.next_at_or_after(64), Some(64));
        assert_eq!(s.next_at_or_after(65), Some(127));
        assert_eq!(s.next_at_or_after(128), Some(199));
        assert_eq!(s.next_at_or_after(199), Some(199));
        assert_eq!(s.next_at_or_after(200), None);
        assert_eq!(BitSet::new(0).next_at_or_after(0), None);
    }

    #[test]
    fn cursor_iteration_matches_iter() {
        let mut s = BitSet::new(300);
        s.extend([3, 64, 65, 191, 192, 299]);
        let mut cursor = Vec::new();
        let mut from = 0;
        while let Some(i) = s.next_at_or_after(from) {
            from = i + 1;
            cursor.push(i);
        }
        assert_eq!(cursor, s.iter().collect::<Vec<_>>());
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let mut dst = BitSet::new(100);
        dst.extend([1, 2, 3]);
        let mut src = BitSet::new(100);
        src.extend([70, 99]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.copy_from(&BitSet::new(100));
        assert!(dst.is_empty());
    }

    #[test]
    #[should_panic(expected = "equal capacities")]
    fn copy_from_rejects_capacity_mismatch() {
        let mut dst = BitSet::new(10);
        dst.copy_from(&BitSet::new(11));
    }
}
