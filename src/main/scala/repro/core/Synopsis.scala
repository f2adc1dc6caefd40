package repro.core

/** Moments of one sample restricted to a query: sample size `ki`, matching
  * rows `kMatch`, and the sum, sum of squares, minimum and maximum of their
  * aggregate values (±Infinity extrema when nothing matches).
  */
final case class Moments(
    ki: Int, kMatch: Int, sumMatch: Double, sumSqMatch: Double,
    minMatch: Double, maxMatch: Double) {
  /** Pools two strata's samples into one. */
  def +(o: Moments): Moments =
    Moments(ki + o.ki, kMatch + o.kMatch, sumMatch + o.sumMatch, sumSqMatch + o.sumSqMatch,
            math.min(minMatch, o.minMatch), math.max(maxMatch, o.maxMatch))
}
object Moments {
  val empty: Moments = Moments(0, 0, 0.0, 0.0, Double.PositiveInfinity, Double.NegativeInfinity)
}

/** The stratified sample attached to one leaf, stored column-major and sorted
  * on the first predicate column: `cols(j)(i)` is predicate `j` of sampled
  * tuple `i` and `values(i)` its aggregate value. Rows are ordered by
  * `java.lang.Double.compare` on `cols(0)`, so rows whose first coordinate is
  * NaN come last. The sort lets [[moments]] bound the rows a query's first
  * predicate admits with two binary searches and scan only that slice.
  */
final class LeafSample private (val cols: Array[Array[Double]], val values: Array[Double])
    extends Serializable {
  def size: Int = values.length

  /** Row view, `coords(i)(j) == cols(j)(i)`; built anew on every call. */
  def coords: Array[Array[Double]] =
    Array.tabulate(size)(i => Array.tabulate(cols.length)(j => cols(j)(i)))

  /** Moments of the rows inside `q`: those with `q.lo(j) <= x_j < q.hi(j)` in
    * every dimension `j`. A NaN coordinate compares false, so it matches no
    * range (`Rect.contains` would count it in).
    */
  def moments(q: Rect): Moments = {
    val n = size
    if (n == 0) return Moments.empty
    val c0    = cols(0)
    val lo0   = q.lo(0); val hi0 = q.hi(0)
    val from  = if (lo0.isNaN) n else LeafSample.firstNot(c0, 0, n, x => x < lo0)
    val until = LeafSample.firstNot(c0, from, n, x => x < hi0) // NaN rows fail `<`
    var k  = 0
    var s1 = 0.0
    var s2 = 0.0
    var mn = Double.PositiveInfinity
    var mx = Double.NegativeInfinity
    var i  = from
    if (cols.length == 1) {
      while (i < until) {
        val a = values(i)
        s1 += a; s2 += a * a
        if (a < mn) mn = a
        if (a > mx) mx = a
        i += 1
      }
      k = until - from
    } else {
      while (i < until) {
        var j = 1
        var in = true
        while (in && j < cols.length) {
          val x = cols(j)(i)
          in = x >= q.lo(j) && x < q.hi(j)
          j += 1
        }
        if (in) {
          val a = values(i)
          k += 1; s1 += a; s2 += a * a
          if (a < mn) mn = a
          if (a > mx) mx = a
        }
        i += 1
      }
    }
    Moments(n, k, s1, s2, mn, mx)
  }
}
object LeafSample {
  /** A sample over the given columns (`cols(j)(i)`: predicate `j` of row `i`)
    * and values, with its rows sorted on `cols(0)`. The arrays are reordered
    * in place and kept.
    */
  def apply(cols: Array[Array[Double]], values: Array[Double]): LeafSample = {
    require(cols.forall(_.length == values.length), "column/value length mismatch")
    if (values.nonEmpty) {
      val perm = Array.range(0, values.length)
      sortWithPerm(cols(0), perm, 0, perm.length)
      for (c <- cols.iterator.drop(1) ++ Iterator(values)) {
        val orig = c.clone()
        var i = 0
        while (i < perm.length) { c(i) = orig(perm(i)); i += 1 }
      }
    }
    new LeafSample(cols, values)
  }

  /** First index in `[from, until)` where `p` fails, given that `p` holds on
    * a prefix of that range and fails on the rest.
    */
  private def firstNot(a: Array[Double], from: Int, until: Int, p: Double => Boolean): Int = {
    var lo = from; var hi = until
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (p(a(mid))) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Sorts `keys(from until until)` in the order of `java.lang.Double.compare`
    * (NaN last), applying the same swaps to `perm`: a quicksort with
    * median-of-three pivots and insertion sort for short ranges.
    */
  private[core] def sortWithPerm(keys: Array[Double], perm: Array[Int], from: Int, until: Int): Unit = {
    def swap(i: Int, j: Int): Unit = {
      val k = keys(i); keys(i) = keys(j); keys(j) = k
      val p = perm(i); perm(i) = perm(j); perm(j) = p
    }
    def cmp(i: Int, j: Int): Int = java.lang.Double.compare(keys(i), keys(j))
    var lo = from; var hi = until
    while (hi - lo > 16) {
      val mid = (lo + hi) >>> 1
      if (cmp(mid, lo) < 0) swap(mid, lo)
      if (cmp(hi - 1, lo) < 0) swap(hi - 1, lo)
      if (cmp(hi - 1, mid) < 0) swap(hi - 1, mid)
      // pivot at hi-1 is the median; Hoare-style partition of [lo, hi-1)
      swap(mid, hi - 1)
      val pivot = keys(hi - 1)
      var i = lo; var j = hi - 2
      while (i <= j) {
        while (java.lang.Double.compare(keys(i), pivot) < 0) i += 1
        while (j >= lo && java.lang.Double.compare(keys(j), pivot) > 0) j -= 1
        if (i <= j) { swap(i, j); i += 1; j -= 1 }
      }
      swap(i, hi - 1)
      // recurse into the smaller side, loop on the larger
      if (i - lo < hi - i - 1) { sortWithPerm(keys, perm, lo, i); lo = i + 1 }
      else { sortWithPerm(keys, perm, i + 1, hi); hi = i }
    }
    var i = lo + 1
    while (i < hi) {
      var j = i
      while (j > lo && cmp(j, j - 1) < 0) { swap(j, j - 1); j -= 1 }
      i += 1
    }
  }
}

/** An approximate-query synopsis: answers SUM/COUNT/AVG/MIN/MAX over a
  * rectangular predicate and reports its own footprint.
  */
trait Synopsis {
  def answer(q: Rect, agg: Agg): Estimate
  def storageBytes: Long
}

/** The PASS synopsis (Fig 2): a partition tree annotated with exact partition
  * aggregates plus per-leaf stratified samples, answering SUM/COUNT/AVG/MIN/MAX
  * with predicates via MCF + partial aggregation + sample estimation (Sec 3.3).
  *
  * @param root       partition tree with populated statistics
  * @param leaves     leaf nodes indexed by leafId
  * @param samples    per-leaf stratified samples indexed by leafId
  * @param totalRows  N, the base-table cardinality
  * @param lambda     CI multiplier (2.576 = 99%, the paper's default)
  * @param zeroVarRule whether AVG queries stop MCF early at min==max nodes
  */
class PassSynopsis(
    val root: TreeNode,
    val leaves: Array[TreeNode],
    val samples: Array[LeafSample],
    val totalRows: Long,
    val lambda: Double = 2.576,
    val zeroVarRule: Boolean = true,
) extends Synopsis with Serializable {
  require(leaves.length == samples.length, "leaf/sample count mismatch")

  /** Total sampled tuples stored (synopsis size accounting, BSS denominator). */
  def storedSamples: Long = samples.map(_.size.toLong).sum

  /** Synopsis footprint in bytes: tree aggregates + sampled tuples. */
  def storageBytes: Long = {
    val d = root.bounds.dims
    root.preorder.size.toLong * (2L * d + 4L) * 8L + storedSamples * (d + 1L) * 8L
  }

  /** Moments of leaf `leafId`'s sample restricted to `q`: every answer reads
    * the leaf samples through here (tests override it with a reference scan).
    */
  private[repro] def leafMoments(leafId: Int, q: Rect): Moments = samples(leafId).moments(q)

  /** Pooled moments over the descendant leaves of a (possibly internal) node —
    * used for 0-variance nodes, whose own sample lives at the leaves below.
    */
  private def pooledMoments(node: TreeNode, q: Rect): Moments = {
    var m  = Moments.empty
    var id = node.leafLo
    while (id <= node.leafHi) { m += leafMoments(id, q); id += 1 }
    m
  }

  /** Answers one aggregate query. See `Estimate` for field semantics. The
    * covered nodes are exact, partial leaves are sampled strata and
    * 0-variance nodes are strata of known value; the hard bounds (Sec 2.3)
    * come from the aggregates of the partial and 0-variance nodes.
    */
  def answer(q: Rect, agg: Agg): Estimate = {
    val f = PartitionTree.mcf(root, q, zeroVarRule = zeroVarRule && agg == Agg.Avg)
    val s = new Strata(agg)
    for (n <- f.cover) s.cover(n.sum, n.count, n.min, n.max)
    for (n <- f.partial) s.sampled(n.count, leafMoments(n.leafId, q))
    for (n <- f.zeroVar) s.known(n.count, pooledMoments(n, q), n.min)
    val partialRows = f.partial.iterator.map(_.count).sum + f.zeroVar.iterator.map(_.count).sum
    val skipRate = if (totalRows == 0) 1.0 else 1.0 - partialRows.toDouble / totalRows
    val coverSum = s.coverSum
    val coverCnt = s.coverCount
    var lb = Double.NaN
    var ub = Double.NaN
    agg match {
      case Agg.Sum => // generalized for possibly-negative values
        lb = coverSum; ub = coverSum
        for (n <- f.partial.iterator ++ f.zeroVar.iterator) {
          lb += (if (n.min >= 0) 0.0 else n.count * math.min(0.0, n.min))
          ub += (if (n.min >= 0) n.sum else n.count * math.max(0.0, n.max))
        }
      case Agg.Count =>
        lb = coverCnt.toDouble
        ub = coverCnt.toDouble + f.partial.iterator.map(_.count).sum
      case Agg.Avg =>
        val coveredAvg     = if (coverCnt > 0) coverSum / coverCnt else Double.NaN
        val partialExtrema = (f.partial.iterator ++ f.zeroVar.iterator).toSeq
        lb =
          if (partialExtrema.isEmpty) coveredAvg
          else if (coverCnt == 0) partialExtrema.map(_.min).min
          else math.min(coveredAvg, partialExtrema.map(_.min).min)
        ub =
          if (partialExtrema.isEmpty) coveredAvg
          else if (coverCnt == 0) partialExtrema.map(_.max).max
          else math.max(coveredAvg, partialExtrema.map(_.max).max)
      case Agg.Min => // the observed minimum can only overestimate the true minimum
        lb = (f.cover.iterator ++ f.partial.iterator).map(_.min).foldLeft(Double.PositiveInfinity)(math.min)
        ub = s.observedMin
      case Agg.Max =>
        lb = s.observedMax
        ub = (f.cover.iterator ++ f.partial.iterator).map(_.max).foldLeft(Double.NegativeInfinity)(math.max)
    }
    s.estimate(lambda, lb, ub, skipRate)
  }
}
