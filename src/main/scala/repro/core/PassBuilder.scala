package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType

/** Builds a [[PassSynopsis]] from a DataFrame with Spark doing all full-data
  * passes, per the construction pipeline of Sec 3.2/4:
  *
  *  1. one pass for cardinality and per-column extrema,
  *  2. a small uniform *optimization sample* collected to the driver, over
  *     which the partitioning optimizer (ADP / equal-depth / kd) runs,
  *  3. one `groupBy(leafId).agg(sum,count,min,max)` shuffle for the exact
  *     partition aggregates,
  *  4. one `stat.sampleBy(leafId, fractions)` pass for the per-leaf stratified
  *     samples.
  *
  * The leaf id is one deterministic, typed UDF over `struct(predCols)` for
  * every partitioner (the cut table or kd skeleton travels in its closure),
  * evaluated afresh in passes 3 and 4. The builder caches nothing: it reads
  * `df` four times, so callers should cache `df` themselves. A row with a
  * NULL or NaN predicate value matches no range: it is left out of the data
  * box, the optimization sample, the leaf aggregates and the samples, and
  * counted only in N.
  */
object PassBuilder {

  /** Which partitioning optimizer shapes the leaves. */
  sealed trait Partitioner extends Product with Serializable
  /** The paper's ADP (sampling + discretization DP) in one dimension. */
  final case class Adp1D(k: Int, agg: Agg = Agg.Sum, deltaM: Int = 0) extends Partitioner
  /** Equal-depth strata (the EQ baseline; optimal for COUNT). */
  final case class EqualDepth1D(k: Int) extends Partitioner
  /** Externally supplied interior cut points (e.g. AQP++ hill climbing). */
  final case class Cuts1D(cuts: Array[Double]) extends Partitioner
  /** KD-PASS greedy max-variance expansion for d > 1. */
  final case class KdGreedy(k: Int, agg: Agg = Agg.Sum, maxDepthSkew: Int = 2) extends Partitioner
  /** Balanced kd expansion (the KD-US baseline's partitioning). */
  final case class KdBalanced(k: Int) extends Partitioner

  /** How many stratified samples each leaf receives. */
  sealed trait Allocation extends Product with Serializable
  /** ESS-style: a fixed count per leaf (the per-query processed-tuple control). */
  final case class PerLeaf(n: Int) extends Allocation
  /** BSS-style: a total budget split equally across leaves. */
  final case class TotalBudget(total: Long) extends Allocation
  /** Proportional: uniform within-stratum sampling rate. */
  final case class Rate(rate: Double) extends Allocation

  /** Construction output plus cost accounting for the paper's tables. */
  final case class BuildResult(
      synopsis: PassSynopsis,
      buildMillis: Long,
      optSampleSize: Int,
      partitioningValue: Double,
  )

  private[repro] final case class Prepared(
      projected: DataFrame,
      totalRows: Long,
      dataRect: Rect,
  )

  /** Casts the relevant columns to double and computes N and the per-dimension
    * data bounding box over the non-NaN values (hi edges nudged up so the box
    * is half-open-inclusive). N counts every row, NULL or NaN predicates too.
    */
  private[repro] def prepare(df: DataFrame, predCols: Seq[String], aggCol: String): Prepared = {
    val cols      = (predCols :+ aggCol).map(c => col(c).cast(DoubleType).as(c))
    val projected = df.select(cols: _*)
    val aggs = predCols.flatMap { c =>
      val x = when(!isnan(col(c)), col(c))
      Seq(min(x).as(s"min_$c"), max(x).as(s"max_$c"))
    } :+
      count(lit(1)).as("n")
    val row = projected.agg(aggs.head, aggs.tail: _*).collect()(0)
    val n   = row.getAs[Long]("n")
    val lo  = predCols.map(c => row.getAs[Double](s"min_$c")).toArray
    val hi  = predCols.map(c => Math.nextUp(row.getAs[Double](s"max_$c"))).toArray
    Prepared(projected, n, Rect(lo, hi))
  }

  /** Collects a uniform optimization sample of ~`target` rows to the driver.
    * Oversampled collections are thinned by stride, not prefix — collect order
    * follows the data order, so `take(target)` would drop the range's tail and
    * bias every downstream cut. Rows with a NULL or NaN predicate are dropped
    * after the draw, on the driver, so a clean table's sample is unchanged.
    */
  private[repro] def optSample(p: Prepared, target: Int, seed: Long): Array[Row] = {
    val frac = if (p.totalRows == 0) 1.0 else math.min(1.0, target * 1.2 / p.totalRows)
    val d    = p.dataRect.dims
    val rows = p.projected.sample(withReplacement = false, frac, seed).collect()
      .filter(r => (0 until d).forall(j => !r.isNullAt(j) && !r.getDouble(j).isNaN))
    if (rows.length <= target) rows
    else {
      val step = rows.length.toDouble / target
      Array.tabulate(target)(i => rows((i * step).toInt))
    }
  }

  /** Interior cuts -> leaf rectangles clamped to the data bounding box. */
  private[repro] def leafRects1D(cuts: Array[Double], dataRect: Rect): Array[Rect] = {
    val edges = dataRect.lo(0) +: cuts :+ dataRect.hi(0)
    Array.tabulate(cuts.length + 1)(j => Rect.range(edges(j), edges(j + 1)))
  }

  /** leaf id = number of cuts <= x (binary search over the broadcast cut table). */
  private[repro] def cutAssigner(cuts: Array[Double]): Array[Double] => Int = { x =>
    var lo = 0; var hi = cuts.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cuts(mid) <= x(0)) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Groups collected sample rows (the `d` predicate columns, the aggregate
    * column, then the leaf id) into one [[LeafSample]] per leaf id in
    * `[0, leafCount)`: a counting pass sizes each leaf's column buffers, a
    * second pass fills them, and `LeafSample` sorts each leaf on column 0.
    */
  private[core] def leafSamples(rows: Array[Row], d: Int, leafCount: Int): Array[LeafSample] = {
    val sizes = new Array[Int](leafCount)
    for (r <- rows) sizes(r.getInt(d + 1)) += 1
    val cols   = Array.tabulate(leafCount)(id => Array.ofDim[Double](d, sizes(id)))
    val values = Array.tabulate(leafCount)(id => new Array[Double](sizes(id)))
    val next   = new Array[Int](leafCount)
    for (r <- rows) {
      val id = r.getInt(d + 1)
      val i  = next(id)
      var j  = 0
      while (j < d) { cols(id)(j)(i) = r.getDouble(j); j += 1 }
      values(id)(i) = r.getDouble(d)
      next(id) = i + 1
    }
    Array.tabulate(leafCount)(id => LeafSample(cols(id), values(id)))
  }

  /** A partitioner's output before any data pass: the unpopulated tree and
    * its leaves by leaf id, the leaf-assignment function the Spark passes
    * broadcast, and the optimizer's objective (NaN where none is computed).
    */
  private[repro] final case class Skeleton(
      root: TreeNode, leaves: Array[TreeNode], assign: Array[Double] => Int, value: Double)

  /** Runs the partitioning optimizer over the collected optimization sample. */
  private[repro] def skeleton(partitioner: Partitioner, sampleRows: Array[Row], d: Int, dataRect: Rect): Skeleton = {
    def points = sampleRows.map(r => Array.tabulate(d)(r.getDouble))
    def values = sampleRows.map(_.getDouble(d))
    def kd(built: KdTree.Built): Skeleton = {
      val (root, leaves) = built.toTreeNodes
      Skeleton(root, leaves, built.assign _, Double.NaN)
    }
    lazy val sorted = SortedSample1D(sampleRows.map(_.getDouble(0)), values)
    def oneD(part: Dp1D.Partitioning1D): Skeleton = {
      val leaves = leafRects1D(part.cuts, dataRect).zipWithIndex.map { case (r, i) => PartitionTree.leaf(r, i) }
      Skeleton(PartitionTree.build1D(leaves), leaves, cutAssigner(part.cuts), part.value)
    }
    partitioner match {
      case KdGreedy(k, agg, skew) => kd(KdTree.buildGreedy(points, values, k, agg, dataRect, skew))
      case KdBalanced(k)          => kd(KdTree.buildBalanced(points, values, k, dataRect))
      case other if d != 1        =>
        throw new IllegalArgumentException(s"partitioner $other incompatible with d=$d")
      case Adp1D(k, agg, dm)      => oneD(Dp1D.adp(sorted, k, agg, dm))
      case EqualDepth1D(k)        => oneD(Dp1D.equalDepth(sorted, k))
      case Cuts1D(cuts)           => oneD(Dp1D.Partitioning1D(Array.empty, cuts, Double.NaN))
    }
  }

  /** Exact aggregates of one leaf: (count, sum, min, max) of the aggregate column. */
  private[repro] type LeafStat = (Long, Double, Double, Double)

  /** The two full-data passes, each over `p.projected` with the leaf id
    * evaluated afresh (nothing is cached): one `groupBy(__leaf)` aggregate for
    * the exact leaf statistics, then one `sampleBy(__leaf)` for the stratified
    * sample rows (the `d` predicate columns, the aggregate column, the leaf
    * id). The leaf id is a typed UDF over `struct(predCols)` that copies the
    * coordinates into a length-`d` array for `sk.assign`. A row with a NULL or
    * NaN coordinate matches no range and gets id -1: its group is skipped and
    * `fractions` has no -1 key, so it is never sampled. (A filter on `__leaf`
    * would be pushed below the projection and evaluate the UDF twice.)
    */
  private[repro] def leafPasses(p: Prepared, predCols: Seq[String], aggCol: String, sk: Skeleton,
                                alloc: Allocation, seed: Long): (Map[Int, LeafStat], Array[Row]) = {
    val d      = predCols.length
    val assign = sk.assign
    val leafId = udf { (r: Row) =>
      val x = new Array[Double](d)
      var j = 0
      while (j < d && !r.isNullAt(j) && !r.getDouble(j).isNaN) { x(j) = r.getDouble(j); j += 1 }
      if (j == d) assign(x) else -1
    }
    val withLeaf = p.projected.withColumn("__leaf", leafId(struct(predCols.map(col): _*)))
    val stats = withLeaf
      .groupBy("__leaf")
      .agg(
        count(col(aggCol)).as("cnt"),
        sum(col(aggCol)).as("sm"),
        min(col(aggCol)).as("mn"),
        max(col(aggCol)).as("mx"),
      )
      .collect()
      .collect { case r if r.getAs[Int]("__leaf") >= 0 =>
        r.getAs[Int]("__leaf") ->
          (r.getAs[Long]("cnt"), r.getAs[Double]("sm"), r.getAs[Double]("mn"), r.getAs[Double]("mx"))
      }
      .toMap
    val fracs = fractions(sk.leaves.length, id => stats.get(id).fold(0L)(_._1), alloc)
    (stats, withLeaf.stat.sampleBy("__leaf", fracs, seed + 1).collect())
  }

  /** `sampleBy` fractions by leaf id: the leaf's target sample size over its
    * row count `count(id)`, capped at 1, and 0 for an empty leaf.
    */
  private def fractions(leafCount: Int, count: Int => Long, alloc: Allocation): Map[Int, Double] = {
    def target(id: Int): Long = alloc match {
      case PerLeaf(n)     => n.toLong
      case TotalBudget(t) => math.max(1L, t / leafCount)
      case Rate(r)        => math.max(1L, math.round(r * count(id)))
    }
    (0 until leafCount).map { id =>
      val ni = count(id)
      id -> (if (ni == 0) 0.0 else math.min(1.0, target(id).toDouble / ni))
    }.toMap
  }

  def build(
      df: DataFrame,
      predCols: Seq[String],
      aggCol: String,
      partitioner: Partitioner,
      alloc: Allocation,
      optSampleSize: Int = 4096,
      lambda: Double = 2.576,
      seed: Long = 42,
      zeroVarRule: Boolean = true,
  ): BuildResult = {
    val t0 = System.nanoTime()
    val p  = prepare(df, predCols, aggCol)
    require(p.totalRows > 0, "cannot build a synopsis over an empty table")
    val sampleRows = optSample(p, optSampleSize, seed)
    val d          = predCols.length
    val sk         = skeleton(partitioner, sampleRows, d, p.dataRect)
    val leaves     = sk.leaves

    val (stats, sampledRows) = leafPasses(p, predCols, aggCol, sk, alloc, seed)
    for (l <- leaves) stats.get(l.leafId).foreach { case (c, s, mn, mx) =>
      l.count = c; l.sum = s; l.min = mn; l.max = mx
    }
    PartitionTree.rollUpTree(sk.root)
    val samples  = leafSamples(sampledRows, d, leaves.length)
    val synopsis = new PassSynopsis(sk.root, leaves, samples, p.totalRows, lambda, zeroVarRule)
    BuildResult(synopsis, (System.nanoTime() - t0) / 1000000L, sampleRows.length, sk.value)
  }
}
