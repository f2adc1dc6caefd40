package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.DoubleType
import repro.bench.{GroundTruth, Workloads}
import repro.core.PassBuilder.{Adp1D, Allocation, KdGreedy, Partitioner, PerLeaf, TotalBudget}
import repro.core.{Agg, Rect}
import repro.data.Datasets

/** One named benchmark workload: a table, a synopsis configuration and a
  * query stream. The table is the generator's fixed dataset at the given
  * scale, so every run builds the same synopsis; the seed draws the query
  * stream. The program under test only sees the DataFrame and the queries.
  */
final case class Workload(
    name: String,
    sf: Double,
    predCols: Seq[String],
    aggCol: String,
    partitioner: Partitioner,
    /** Sample allocation as a function of the table's row count N. */
    allocation: Long => Allocation,
    /** Aggregates the query stream cycles through, in order. */
    aggs: Seq[Agg],
    table: (SparkSession, Double) => DataFrame,
    queries: (GroundTruth, Int, Long) => Array[Rect],
)

/** A workload's generated inputs: the cached table, the query stream and the
  * exact answer of every query, computed before any timing starts.
  */
final case class Inputs(
    df: DataFrame,
    rows: Long,
    queries: Array[Rect],
    aggs: Array[Agg],
    truths: Array[Double],
    datagenS: Double,
    truthS: Double,
    querygenS: Double,
)

object Workload {

  /** The uniform-sample budget K of the paper's BSS configurations: 0.5% of N. */
  def usBudget(n: Long): Long = math.max(200L, math.ceil(0.005 * n).toLong)

  /** Distinct queries in a stream: at least 1000, so that the p99 over
    * queries has ten beyond it.
    */
  val streamLength = 1200

  /** Fewest rows a query may match (Sec 4.2's "meaningful" queries), as the
    * multi-dimensional workloads of Table 2 use it.
    */
  def meaningfulRows(gt: GroundTruth): Long = math.max(50L, gt.n / 1000L)

  private val nycTemplateCols =
    Seq("pickup_time", "pickup_date", "PULocationID", "dropoff_date", "dropoff_time")

  val all: Seq[Workload] = Seq(
    // Build dominated by the full-data Spark passes; queries by the linear
    // leaf-sample scan of about two partial leaves.
    Workload("nyc1d-sf1", 1.0, Seq("pickup_datetime"), "trip_distance",
      Adp1D(64, Agg.Sum), n => TotalBudget(10L * usBudget(n)), Seq(Agg.Sum, Agg.Count, Agg.Avg),
      (spark, sf) => Datasets.nycLite(spark, sf),
      (gt, nq, seed) => Workloads.ranges1D(gt, nq, minFrac = 0.01, seed)),
    // Queries walk a fanout-32 kd tree (MCF) and test each partial-leaf sample
    // row against a 5-D rectangle; a 1-D scan change bypasses this workload.
    Workload("nyc5d-kd", 0.1, nycTemplateCols, "trip_distance",
      KdGreedy(256, Agg.Sum), _ => PerLeaf(30), Seq(Agg.Sum),
      (spark, sf) => Datasets.nycLite(spark, sf),
      (gt, nq, seed) => Workloads.rects(gt, nq, minCount = meaningfulRows(gt), seed)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; expected one of ${all.map(_.name).mkString(", ")}"))

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Generates and caches the table, collects its ground truth, draws the
    * query stream and answers every query exactly. The ground truth is
    * dropped on return; only the per-query truths are kept.
    */
  def inputs(spark: SparkSession, w: Workload, seed: Long): Inputs = {
    val t0 = System.nanoTime()
    val df = w.table(spark, w.sf).select((w.predCols :+ w.aggCol).map(col): _*).persist()
    val rows = df.count()
    val datagenS = secondsSince(t0)

    val t1 = System.nanoTime()
    val gt = collectTruth(df, w.predCols, w.aggCol)
    val truthS0 = secondsSince(t1)

    // Where a truth is a full scan (d > 1, MIN, MAX), the stream is drawn and
    // answered in fixed chunks on parallel views of the ground truth; each
    // view keeps its own (thread-unsafe) answer cache.
    val scans = gt.dims > 1 || w.aggs.exists(a => a == Agg.Min || a == Agg.Max)
    val views =
      if (!scans) Seq(gt) else Seq.fill(truthChunks)(new GroundTruth(gt.coords, gt.values))
    val t2 = System.nanoTime()
    val chunks = inParallel(views.indices) { k =>
      val nq = streamLength / views.length + (if (k < streamLength % views.length) 1 else 0)
      w.queries(views(k), nq, seed + 1000L * k)
    }
    val qs = chunks.flatten.distinct.toArray
    require(qs.length >= 1000, s"${w.name}: only ${qs.length} distinct queries")
    val aggs = Array.tabulate(qs.length)(i => w.aggs(i % w.aggs.length))
    val querygenS = secondsSince(t2)

    val t3 = System.nanoTime()
    val truths = inParallel(views.indices) { k =>
      (qs.length * k / views.length until qs.length * (k + 1) / views.length)
        .map(i => views(k).answer(qs(i), aggs(i)))
    }.flatten.toArray
    Inputs(df, rows, qs, aggs, truths, datagenS, truthS0 + secondsSince(t3), querygenS)
  }

  /** Chunks of a query stream whose truths are scans, drawn and answered in parallel. */
  val truthChunks = 4

  private def inParallel[A](ks: Seq[Int])(f: Int => A): Seq[A] = {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    Await.result(Future.traverse(ks)(k => Future(f(k))), scala.concurrent.duration.Duration.Inf)
  }

  /** [[GroundTruth]] over the table, collected as one primitive array per
    * column and partition instead of one `Row` per tuple. A 1-D
    * table is sorted by its predicate first, so that the ground truth's own
    * (boxed) index sort runs over ordered input.
    */
  private def collectTruth(df: DataFrame, predCols: Seq[String], aggCol: String): GroundTruth = {
    val cols  = predCols :+ aggCol
    val width = cols.length
    val parts = df.select(cols.map(c => col(c).cast(DoubleType)): _*).rdd.mapPartitions { it =>
      val bufs = Array.fill(width)(Array.newBuilder[Double])
      it.foreach { r => var j = 0; while (j < width) { bufs(j) += r.getDouble(j); j += 1 } }
      Iterator.single(bufs.map(_.result()))
    }.collect()
    val columns = Array.tabulate(width) { j =>
      val out = new Array[Double](parts.map(_(j).length).sum)
      var at  = 0
      parts.foreach { p => System.arraycopy(p(j), 0, out, at, p(j).length); at += p(j).length }
      out
    }
    if (predCols.length == 1) sortTogether(columns(0), columns(1))
    new GroundTruth(columns.take(predCols.length), columns(predCols.length))
  }

  /** Sorts `keys` ascending in place and applies the same permutation to
    * `vals` (quicksort, median-of-three pivot, insertion sort for short runs).
    */
  private[perfbench] def sortTogether(keys: Array[Double], vals: Array[Double]): Unit = {
    def swap(i: Int, j: Int): Unit = {
      val k = keys(i); keys(i) = keys(j); keys(j) = k
      val v = vals(i); vals(i) = vals(j); vals(j) = v
    }
    def sort(lo0: Int, hi0: Int): Unit = { // sorts the inclusive range [lo0, hi0]
      var lo = lo0; var hi = hi0
      while (hi - lo > 16) {
        val a = keys(lo); val b = keys((lo + hi) >>> 1); val c = keys(hi)
        val pivot = math.max(math.min(a, b), math.min(math.max(a, b), c))
        var i = lo; var j = hi
        while (i <= j) {
          while (keys(i) < pivot) i += 1
          while (keys(j) > pivot) j -= 1
          if (i <= j) { swap(i, j); i += 1; j -= 1 }
        }
        if (j - lo < hi - i) { sort(lo, j); lo = i } else { sort(i, hi); hi = j }
      }
      var i = lo + 1
      while (i <= hi) {
        var j = i
        while (j > lo && keys(j - 1) > keys(j)) { swap(j - 1, j); j -= 1 }
        i += 1
      }
    }
    sort(0, keys.length - 1)
  }
}
