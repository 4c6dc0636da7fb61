//! Index-based sorting kernels for row-major relations.
//!
//! The Tributary join's prepare phase is dominated by lexicographic
//! sorting (paper Table 5: "BR_TJ: all sorts … 73%" of local-join time),
//! so the sort itself is worth a specialized kernel instead of a generic
//! comparator sort. Everything here sorts a `u32` *index* array over a
//! row-major `&[Value]` buffer and gathers rows exactly once at the end:
//!
//! * [`sorted_indices_radix`] — a multi-column LSD radix sort. Columns
//!   are processed from the least-significant (last) to the
//!   most-significant (first); within a column, key bytes go LSB→MSB
//!   through a 256-bucket counting sort over contiguous `(key, index)`
//!   pairs. A pre-pass computes which bytes actually vary across the
//!   rows, so passes with a trivial byte histogram (dictionary-encoded
//!   values rarely use more than 3–4 of the 8 bytes) are skipped
//!   entirely — neither histogrammed nor scattered.
//! * [`sorted_indices_comparator`] — the classic comparator sort,
//!   faster below [`RADIX_MIN_ROWS`] where radix setup costs dominate.
//! * [`sorted_indices`] — dispatches between the two by input size.
//! * [`merge_runs`] — a galloping merge of two sorted index runs, used
//!   by the engine's intra-worker parallel sort to combine per-thread
//!   chunks.
//! * [`KeyPacking`] — the composite radix path's row packer, public so
//!   the engine's columnar prepare can sort packed words directly
//!   ([`KeyPacking::sorted_words`]) and build trie levels from them
//!   without ever gathering a sorted row view.
//!
//! All kernels are *stable-equivalent*: equal rows keep their relative
//! index order, so chunked parallel sorts and the single-threaded path
//! produce byte-identical gathered relations.

use crate::Value;

/// Below this many rows the comparator sort wins: the radix sort pays a
/// fixed cost per varying key byte (histogram + scatter of the whole
/// pair buffer) that only amortizes at scale.
pub const RADIX_MIN_ROWS: usize = 2048;

/// Compares rows `a` and `b` of a row-major buffer lexicographically.
#[inline]
pub fn row_cmp(data: &[Value], arity: usize, a: usize, b: usize) -> std::cmp::Ordering {
    data[a * arity..(a + 1) * arity].cmp(&data[b * arity..(b + 1) * arity])
}

/// Sorted permutation of the rows `[lo, hi)` of a row-major buffer:
/// returns absolute row indices in lexicographic row order. Dispatches
/// to the radix kernel above [`RADIX_MIN_ROWS`] rows and to the
/// comparator kernel below it; both are stable.
///
/// # Panics
/// Panics if `hi * arity` exceeds the buffer or `hi < lo`.
pub fn sorted_indices(data: &[Value], arity: usize, lo: usize, hi: usize) -> Vec<u32> {
    if hi - lo >= RADIX_MIN_ROWS {
        sorted_indices_radix(data, arity, lo, hi)
    } else {
        sorted_indices_comparator(data, arity, lo, hi)
    }
}

/// Stable comparator index sort of rows `[lo, hi)` (ties broken by
/// original index, which makes `sort_unstable_by` stable in effect).
pub fn sorted_indices_comparator(data: &[Value], arity: usize, lo: usize, hi: usize) -> Vec<u32> {
    assert!(
        lo <= hi && hi * arity <= data.len(),
        "row range out of bounds"
    );
    let mut idx: Vec<u32> = (lo as u32..hi as u32).collect();
    if arity == 0 {
        return idx;
    }
    idx.sort_unstable_by(|&a, &b| row_cmp(data, arity, a as usize, b as usize).then(a.cmp(&b)));
    idx
}

/// Multi-column LSD radix index sort of rows `[lo, hi)`.
///
/// Correct at any size; use [`sorted_indices`] unless a benchmark or
/// test specifically wants this kernel.
///
/// # Panics
/// Panics if `hi * arity` exceeds the buffer or `hi < lo`.
pub fn sorted_indices_radix(data: &[Value], arity: usize, lo: usize, hi: usize) -> Vec<u32> {
    assert!(
        lo <= hi && hi * arity <= data.len(),
        "row range out of bounds"
    );
    let n = hi - lo;
    let mut idx: Vec<u32> = (lo as u32..hi as u32).collect();
    if arity == 0 || n <= 1 {
        return idx;
    }

    // A column whose varying bits are all zero is constant: a key byte
    // whose mask slice is zero would produce a single-bucket (trivial)
    // histogram, so its counting pass is skipped outright.
    let cols: Vec<usize> = (0..arity).collect();
    let packing = KeyPacking::new(data, arity, lo, hi, &cols);
    if packing.packed_vary() == 0 {
        return idx; // all rows equal
    }

    // When every column's varying width fits one u64 the whole row
    // packs into a single composite key and one LSD chain sorts all
    // columns at once — no per-column re-gather of the row buffer.
    if packing.fits() {
        composite_radix(data, arity, lo, &mut idx, &packing);
        return idx;
    }

    // Contiguous key and index arrays keep every counting pass a
    // sequential scan instead of a random gather from the row buffer.
    let mut keys: Vec<Value> = Vec::with_capacity(n);
    let mut ids: Vec<u32> = Vec::with_capacity(n);

    // LSD over columns: the last column is the least significant key.
    for col in (0..arity).rev() {
        let vary = packing.vary[col];
        if vary == 0 {
            continue; // column is constant: any order satisfies it
        }
        keys.clear();
        keys.extend(idx.iter().map(|&i| data[i as usize * arity + col]));
        ids.clear();
        ids.extend_from_slice(&idx);
        lsd_digit_passes(&mut keys, &mut ids, vary);
        idx.copy_from_slice(&ids);
    }
    idx
}

/// How rows pack into one `u64` sort key: each chosen column
/// contributes only the bits that vary across the rows, the first
/// column most significant. Bits at or above a column's highest varying
/// bit are constant across all rows, so comparing packed words compares
/// the rows lexicographically on those columns, and the constant high
/// bits (taken from the first row) restore every value from its field.
///
/// This is the one packer behind the composite radix sort and the
/// engine's columnar prepare, which sorts packed words and emits trie
/// levels from them without materialising a sorted row view.
#[derive(Debug, Clone)]
pub struct KeyPacking {
    /// Source column of each field, most significant field first.
    cols: Vec<usize>,
    /// Bit offset of each field in the packed word (0 for a constant
    /// field, so no shift ever reaches 64).
    shifts: Vec<u32>,
    /// Mask of each field's varying width.
    masks: Vec<u64>,
    /// Each field's constant bits above its varying width.
    high: Vec<Value>,
    /// Per field: the OR of every value XOR the first row's value.
    vary: Vec<u64>,
    /// Sum of the fields' varying widths; packing needs it `<= 64`.
    width: u32,
    /// The most significant field in which two words differ, indexed by
    /// the bit length of their XOR: entry `b + 1` is the field holding
    /// bit `b` (field 0 above every field), and entry 0 (equal words) is
    /// the field count.
    field_of_diff: [u8; 65],
}

impl KeyPacking {
    /// Plans the packing of columns `cols` (most significant first) of
    /// rows `[lo, hi)` of a row-major buffer: one pass computes which
    /// bits of each column vary.
    ///
    /// # Panics
    /// Panics if `hi * arity` exceeds the buffer, `hi < lo`, `cols`
    /// holds more than 255 columns, or a column is out of range on a
    /// non-empty range.
    pub fn new(data: &[Value], arity: usize, lo: usize, hi: usize, cols: &[usize]) -> KeyPacking {
        assert!(
            lo <= hi && hi * arity <= data.len(),
            "row range out of bounds"
        );
        assert!(cols.len() < 256, "a packed key has at most 255 fields");
        let mut vary = vec![0u64; cols.len()];
        let mut first = vec![0 as Value; cols.len()];
        if lo < hi && !cols.is_empty() {
            let row0 = &data[lo * arity..(lo + 1) * arity];
            for (f, &c) in first.iter_mut().zip(cols) {
                *f = row0[c];
            }
            for row in data[lo * arity..hi * arity].chunks_exact(arity) {
                for ((m, &c), &f) in vary.iter_mut().zip(cols).zip(&first) {
                    *m |= row[c] ^ f;
                }
            }
        }
        let widths: Vec<u32> = vary.iter().map(|m| 64 - m.leading_zeros()).collect();
        let width: u32 = widths.iter().sum();
        let masks: Vec<u64> = widths
            .iter()
            .map(|&w| if w == 64 { u64::MAX } else { (1u64 << w) - 1 })
            .collect();
        let high = first.iter().zip(&masks).map(|(&v, &m)| v & !m).collect();
        let mut shifts = vec![0u32; cols.len()];
        let mut field_of_diff = [0u8; 65];
        field_of_diff[0] = cols.len() as u8;
        if width <= 64 {
            // Fields fill the word from the top: the last field sits at
            // bit 0, each earlier one directly above its successor.
            let mut at = 0u32;
            for f in (0..cols.len()).rev() {
                if widths[f] == 0 {
                    continue;
                }
                shifts[f] = at;
                for b in at..at + widths[f] {
                    field_of_diff[b as usize + 1] = f as u8;
                }
                at += widths[f];
            }
        }
        KeyPacking {
            cols: cols.to_vec(),
            shifts,
            masks,
            high,
            vary,
            width,
            field_of_diff,
        }
    }

    /// True when the varying widths sum to at most 64 bits, so every row
    /// packs into one word. The other methods (except
    /// [`KeyPacking::fields`]) require it.
    pub fn fits(&self) -> bool {
        self.width <= 64
    }

    /// Number of fields (packed columns).
    pub fn fields(&self) -> usize {
        self.cols.len()
    }

    /// The bits that differ between any two packed words of the rows the
    /// packing was planned on; zero when every such row packs equal.
    pub fn packed_vary(&self) -> u64 {
        self.vary
            .iter()
            .zip(&self.shifts)
            .fold(0, |acc, (&m, &s)| acc | m << s)
    }

    /// Packs one row (a full source row, indexed by the planned columns).
    #[inline]
    pub fn pack(&self, row: &[Value]) -> u64 {
        self.cols
            .iter()
            .zip(&self.masks)
            .zip(&self.shifts)
            .fold(0, |key, ((&c, &m), &s)| key | (row[c] & m) << s)
    }

    /// The value of field `f` of packed word `k`.
    #[inline]
    pub fn field(&self, k: u64, f: usize) -> Value {
        self.high[f] | (k >> self.shifts[f]) & self.masks[f]
    }

    /// The most significant field in which packed words `a` and `b`
    /// differ (0 when they differ above every field), or
    /// [`KeyPacking::fields`] when they are equal — a branch-free table
    /// lookup.
    #[inline]
    pub fn first_diff(&self, a: u64, b: u64) -> usize {
        self.field_of_diff[(64 - (a ^ b).leading_zeros()) as usize] as usize
    }

    /// Rows `[lo, hi)` packed and radix-sorted ascending. Equal rows pack
    /// to equal words, so no position rides along: the order among
    /// duplicates is invisible.
    pub fn sorted_words(&self, data: &[Value], arity: usize, lo: usize, hi: usize) -> Vec<u64> {
        let vary = self.packed_vary();
        if vary == 0 {
            return vec![0; hi - lo];
        }
        let (mut words, radix) = self.pack_rows(data, arity, lo, hi, vary, |key, _| key);
        radix.scatter(&mut words);
        words
    }

    /// The packing loop: rows `[lo, hi)` packed and mapped through
    /// `word(key, relative position)`, with the counting histograms of
    /// the radix plan for `word_vary` (the varying bits of the mapped
    /// words, non-zero) filled in the same scan.
    fn pack_rows(
        &self,
        data: &[Value],
        arity: usize,
        lo: usize,
        hi: usize,
        word_vary: u64,
        word: impl Fn(u64, usize) -> u64,
    ) -> (Vec<u64>, RadixPlan) {
        debug_assert!(self.fits(), "packing wider than one word");
        debug_assert!(arity > 0, "a nullary row packs to nothing");
        let mut radix = RadixPlan::new(word_vary);
        let mut words: Vec<u64> = Vec::with_capacity(hi - lo);
        words.extend(
            data[lo * arity..hi * arity]
                .chunks_exact(arity.max(1))
                .enumerate()
                .map(|(j, row)| {
                    let w = word(self.pack(row), j);
                    radix.count(w);
                    w
                }),
        );
        (words, radix)
    }
}

/// Sorts `idx` (rows `lo..lo + idx.len()` in order) by a single packed
/// key per row (see [`KeyPacking`]).
///
/// The row's *relative position* rides in the low bits of the same
/// `u64`, so each counting pass moves 8 bytes per row, not a padded
/// key+index pair — and because position bits sit below every key bit,
/// a full LSD chain over the packed word sorts by (key, original
/// position), which is exactly the comparator kernel's tie-break. When
/// key + position bits exceed 64, the lowest key bits are dropped from
/// the radix and runs that tie on the kept bits get a comparator
/// fix-up; uniform keys make such runs birthday-rare, and in the worst
/// case the fix-up degenerates to the comparator sort (correct, just
/// not faster).
fn composite_radix(data: &[Value], arity: usize, lo: usize, idx: &mut [u32], packing: &KeyPacking) {
    let n = idx.len();
    // Bits to hold a relative position 0..n (n ≥ 2 here, so ≥ 1).
    let idx_bits = 64 - (n as u64 - 1).leading_zeros();
    let drop = (packing.width + idx_bits).saturating_sub(64);
    // The packed vary mask mirrors the packing, so trivial composite
    // digits (constant bits that rode along inside a column) still
    // skip — and the position bits below it are never scattered at all
    // (they start in position order and stable passes keep them there).
    let vary = (packing.packed_vary() >> drop) << idx_bits;
    let (mut packed, radix) = packing.pack_rows(data, arity, lo, lo + n, vary, |key, j| {
        ((key >> drop) << idx_bits) | j as u64
    });
    radix.scatter(&mut packed);

    let pos_mask = (1u64 << idx_bits) - 1;
    if drop > 0 {
        // Rows tying on the kept key bits may still differ in the
        // dropped ones: comparator-sort each tied run on the full row
        // (position bits break the remaining ties, matching the
        // comparator kernel bit for bit).
        let mut s = 0usize;
        while s < n {
            let chunk = packed[s] >> idx_bits;
            let mut e = s + 1;
            while e < n && packed[e] >> idx_bits == chunk {
                e += 1;
            }
            if e - s > 1 {
                packed[s..e].sort_unstable_by(|&a, &b| {
                    let ra = (a & pos_mask) as usize + lo;
                    let rb = (b & pos_mask) as usize + lo;
                    row_cmp(data, arity, ra, rb).then(a.cmp(&b))
                });
            }
            s = e;
        }
    }
    for (dst, &p) in idx.iter_mut().zip(&packed) {
        *dst = (p & pos_mask) as u32 + lo as u32;
    }
}

/// How many bits each counting pass consumes at most. 11 bits (2048
/// buckets) keeps the scatter's write working set inside L2 while
/// needing far fewer passes than byte-at-a-time for wide keys; the
/// actual digit is balanced across the key width (e.g. a 57-bit key
/// takes five 12-bit passes rather than five 11-bit and one 2-bit).
const MAX_DIGIT_BITS: u32 = 11;

/// Balanced digit plan for the varying bit span of `vary` (non-zero):
/// digit width in bits plus the shift of each non-trivial pass.
/// Constant bits below the first varying bit and above the last are
/// never scattered, and digits whose `vary` slice is zero drop out.
fn digit_plan(vary: u64) -> (u32, Vec<u32>) {
    let base = vary.trailing_zeros();
    let span = 64 - vary.leading_zeros() - base;
    let passes = span.div_ceil(MAX_DIGIT_BITS);
    let digit = span.div_ceil(passes);
    let mask = (1u64 << digit) - 1;
    let shifts = (0..passes)
        .map(|p| base + p * digit)
        .filter(|&s| (vary >> s) & mask != 0)
        .collect();
    (digit, shifts)
}

/// LSB→MSB counting passes over parallel `keys`/`ids` arrays, skipping
/// digits whose `vary` slice is zero. Keys and indices live in separate
/// buffers (12 bytes moved per row per pass, not a padded 16-byte pair)
/// and every histogram is filled in one fused scan before the first
/// scatter. Each pass is stable, so the whole chain is.
///
/// `vary` must be non-zero and the OR of all pairwise key XORs: bits
/// above its top set bit are constant and are never scattered.
fn lsd_digit_passes(keys: &mut Vec<u64>, ids: &mut Vec<u32>, vary: u64) {
    let (digit, shifts) = digit_plan(vary);
    let buckets = 1usize << digit;
    let mask = (buckets - 1) as u64;
    let mut hists = vec![vec![0u32; buckets]; shifts.len()];
    for &k in keys.iter() {
        for (h, &s) in hists.iter_mut().zip(&shifts) {
            h[((k >> s) & mask) as usize] += 1;
        }
    }
    let mut kscratch = vec![0u64; keys.len()];
    let mut iscratch = vec![0u32; ids.len()];
    let mut offsets = vec![0u32; buckets];
    for (hist, &shift) in hists.iter().zip(&shifts) {
        let mut acc = 0u32;
        for (o, &h) in offsets.iter_mut().zip(hist) {
            *o = acc;
            acc += h;
        }
        for (&k, &i) in keys.iter().zip(ids.iter()) {
            let b = ((k >> shift) & mask) as usize;
            let pos = offsets[b] as usize;
            offsets[b] += 1;
            kscratch[pos] = k;
            iscratch[pos] = i;
        }
        std::mem::swap(keys, &mut kscratch);
        std::mem::swap(ids, &mut iscratch);
    }
}

/// The counting passes of an LSD chain over self-contained packed
/// words: the [`digit_plan`] of their varying bits, plus one histogram
/// per pass, filled by [`RadixPlan::count`] while the words are built so
/// the first scatter starts without another pass over the keys.
struct RadixPlan {
    digit: u32,
    shifts: Vec<u32>,
    hists: Vec<Vec<u32>>,
}

impl RadixPlan {
    /// The plan for words whose varying bits are `vary` (non-zero).
    fn new(vary: u64) -> RadixPlan {
        let (digit, shifts) = digit_plan(vary);
        let hists = vec![vec![0u32; 1 << digit]; shifts.len()];
        RadixPlan {
            digit,
            shifts,
            hists,
        }
    }

    /// Tallies one word into every pass's histogram.
    #[inline]
    fn count(&mut self, w: u64) {
        let mask = (1u64 << self.digit) - 1;
        for (h, &s) in self.hists.iter_mut().zip(&self.shifts) {
            h[((w >> s) & mask) as usize] += 1;
        }
    }

    /// The scatter chain of [`lsd_digit_passes`] for words every one of
    /// which was [`RadixPlan::count`]ed: one 8-byte array is all any
    /// pass touches. Stable, like every pass.
    fn scatter(&self, words: &mut Vec<u64>) {
        let mask = (1u64 << self.digit) - 1;
        let mut scratch = vec![0u64; words.len()];
        let mut offsets = vec![0u32; 1 << self.digit];
        for (hist, &shift) in self.hists.iter().zip(&self.shifts) {
            let mut acc = 0u32;
            for (o, &h) in offsets.iter_mut().zip(hist) {
                *o = acc;
                acc += h;
            }
            for &k in words.iter() {
                let b = ((k >> shift) & mask) as usize;
                scratch[offsets[b] as usize] = k;
                offsets[b] += 1;
            }
            std::mem::swap(words, &mut scratch);
        }
    }
}

/// Gathers rows into a fresh row-major buffer in `idx` order — the
/// single output copy of the index-sort pipeline.
pub fn gather(data: &[Value], arity: usize, idx: &[u32]) -> Vec<Value> {
    let mut out = Vec::with_capacity(idx.len() * arity);
    for &i in idx {
        out.extend_from_slice(&data[i as usize * arity..(i as usize + 1) * arity]);
    }
    out
}

/// Merges two sorted index runs into one, galloping through long
/// one-sided stretches (the same exponential-search idea as the trie
/// cursor's `seek`). Stable: ties take from `a` first, so merging
/// chunk-sorted runs in chunk order reproduces the single-threaded
/// stable sort exactly.
pub fn merge_runs(data: &[Value], arity: usize, a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if row_cmp(data, arity, a[i] as usize, b[j] as usize) != std::cmp::Ordering::Greater {
            // Take the whole stretch of `a` rows ≤ b[j] in one gallop.
            let end = gallop(a, i, |r| {
                row_cmp(data, arity, r as usize, b[j] as usize) != std::cmp::Ordering::Greater
            });
            out.extend_from_slice(&a[i..end]);
            i = end;
        } else {
            // Take the stretch of `b` rows strictly < a[i].
            let end = gallop(b, j, |r| {
                row_cmp(data, arity, r as usize, a[i] as usize) == std::cmp::Ordering::Less
            });
            out.extend_from_slice(&b[j..end]);
            j = end;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// First position `≥ from` where `take` fails (or `run.len()`), found by
/// exponential probing then binary search. Requires `take(run[from])`.
fn gallop<F: Fn(u32) -> bool>(run: &[u32], from: usize, take: F) -> usize {
    debug_assert!(take(run[from]), "gallop requires a taken first element");
    let mut offset = 1usize;
    while from + offset < run.len() && take(run[from + offset]) {
        offset <<= 1;
    }
    // Invariant: take holds at from + offset/2, fails at from + offset
    // (or that is past the end).
    let mut lo = from + offset / 2 + 1;
    let mut hi = (from + offset).min(run.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if take(run[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(data: &[Value], arity: usize, idx: &[u32]) -> Vec<Vec<Value>> {
        idx.iter()
            .map(|&i| data[i as usize * arity..(i as usize + 1) * arity].to_vec())
            .collect()
    }

    fn pseudo_rows(n: usize, arity: usize, domain: u64, seed: u64) -> Vec<Value> {
        (0..n * arity)
            .map(|i| crate::hash::hash64(i as u64, seed) % domain)
            .collect()
    }

    #[test]
    fn radix_matches_comparator_small_domains() {
        for arity in 1..=4 {
            for &domain in &[2u64, 50, 1 << 20, u64::MAX] {
                let data = pseudo_rows(500, arity, domain, 7 + arity as u64);
                let r = sorted_indices_radix(&data, arity, 0, 500);
                let c = sorted_indices_comparator(&data, arity, 0, 500);
                assert_eq!(r, c, "arity {arity} domain {domain}");
            }
        }
    }

    #[test]
    fn radix_is_stable_on_duplicates() {
        // All rows equal: the permutation must be the identity.
        let data = vec![9u64; 4 * 64];
        let r = sorted_indices_radix(&data, 4, 0, 64);
        assert_eq!(r, (0u32..64).collect::<Vec<_>>());
    }

    #[test]
    fn subrange_sorts_only_its_rows() {
        let data = pseudo_rows(100, 2, 1000, 3);
        let idx = sorted_indices(&data, 2, 20, 60);
        assert_eq!(idx.len(), 40);
        assert!(idx.iter().all(|&i| (20..60).contains(&(i as usize))));
        let rows = rows_of(&data, 2, &idx);
        assert!(rows.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn gather_preserves_order() {
        let data = vec![3u64, 30, 1, 10, 2, 20];
        let idx = sorted_indices_comparator(&data, 2, 0, 3);
        assert_eq!(gather(&data, 2, &idx), vec![1, 10, 2, 20, 3, 30]);
    }

    #[test]
    fn merge_runs_matches_full_sort() {
        let data = pseudo_rows(300, 3, 40, 11); // small domain → many ties
        let mid = 150;
        let a = sorted_indices_comparator(&data, 3, 0, mid);
        let b = sorted_indices_comparator(&data, 3, mid, 300);
        let merged = merge_runs(&data, 3, &a, &b);
        let full = sorted_indices_comparator(&data, 3, 0, 300);
        assert_eq!(merged, full, "stable merge must equal stable sort");
    }

    #[test]
    fn merge_runs_empty_sides() {
        let data = vec![1u64, 2, 3];
        let run = sorted_indices_comparator(&data, 1, 0, 3);
        assert_eq!(merge_runs(&data, 1, &run, &[]), run);
        assert_eq!(merge_runs(&data, 1, &[], &run), run);
    }

    #[test]
    fn nullary_and_tiny_inputs() {
        assert_eq!(sorted_indices(&[], 0, 0, 5), vec![0, 1, 2, 3, 4]);
        assert_eq!(sorted_indices_radix(&[], 0, 0, 0), Vec::<u32>::new());
        let one = vec![7u64, 8];
        assert_eq!(sorted_indices_radix(&one, 2, 0, 1), vec![0]);
    }
}
