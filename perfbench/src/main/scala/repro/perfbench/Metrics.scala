package repro.perfbench

import repro.bench.Harness
import repro.core.Estimate

/** The benchmark's own metric arithmetic, kept free of Spark so that tests can
  * feed it hand-made inputs.
  */
object Metrics {

  /** Nearest-rank percentile `p` (in (0, 1)) of `xs`. Returns NaN unless at
    * least `minBeyond` samples rank strictly above it, so a reported tail
    * percentile always rests on ten or more samples beyond it: p99 needs at
    * least 1000 samples.
    */
  def percentile(xs: Array[Double], p: Double, minBeyond: Int = 10): Double = {
    require(p > 0 && p < 1, s"percentile $p outside (0, 1)")
    val n    = xs.length
    val rank = math.ceil(p * n - 1e-9).toInt // 1-based nearest rank
    if (n == 0 || n - rank < minBeyond) Double.NaN
    else xs.sorted.apply(rank - 1)
  }

  /** Each query's fastest timing over the passes: `passes(p)(i)` is query
    * `i`'s timing in pass `p`, and every pass times the same queries.
    */
  def fastest(passes: Array[Array[Double]]): Array[Double] = {
    require(passes.nonEmpty && passes.forall(_.length == passes(0).length), "passes of unequal length")
    Array.tabulate(passes(0).length)(i => passes.iterator.map(_(i)).min)
  }

  /** True when a truth can anchor a relative error: finite and non-zero. */
  def scorable(truth: Double): Boolean = !truth.isNaN && !truth.isInfinite && truth != 0.0

  /** Median relative error over the queries whose truth is finite and
    * non-zero; NaN when there are none.
    */
  def medianRe(values: Array[Double], truths: Array[Double]): Double =
    Harness.median(values.indices.collect {
      case i if scorable(truths(i)) => math.abs(values(i) - truths(i)) / math.abs(truths(i))
    })

  /** Median CI half-width relative to the truth, over scorable truths with a CI. */
  def medianCiRatio(ciHalves: Array[Double], truths: Array[Double]): Double =
    Harness.median(ciHalves.indices.collect {
      case i if scorable(truths(i)) && !ciHalves(i).isNaN => ciHalves(i) / math.abs(truths(i))
    })

  /** Share of CIs that contain the truth, over queries with a scorable truth
    * and a CI (MIN/MAX give none). The slack of 1e-9·|truth| absorbs the
    * different summation orders of the synopsis and the ground truth, as in
    * [[Harness.evaluate]].
    */
  def ciCoverage(values: Array[Double], ciHalves: Array[Double], truths: Array[Double]): Double = {
    val withCi = values.indices.filter(i => scorable(truths(i)) && !ciHalves(i).isNaN)
    if (withCi.isEmpty) Double.NaN
    else withCi.count(i => math.abs(values(i) - truths(i)) <= ciHalves(i) + 1e-9 * math.abs(truths(i)))
      .toDouble / withCi.length
  }

  /** Why an answer counts as failed, or None when it passes: a non-finite
    * value where the truth is finite, or hard bounds `[lb, ub]` that miss a
    * finite truth (NaN bounds miss). Bounds get the same relative slack as
    * CIs.
    */
  def answerFailure(est: Estimate, truth: Double): Option[String] = {
    val finiteTruth = !truth.isNaN && !truth.isInfinite
    val slack       = 1e-9 * math.max(1.0, math.abs(truth))
    if (!finiteTruth) None
    else if (est.value.isNaN || est.value.isInfinite) Some(s"value ${est.value} where truth is $truth")
    else if (!(est.lb <= truth + slack && truth - slack <= est.ub))
      Some(s"bounds [${est.lb}, ${est.ub}] miss truth $truth")
    else None
  }

  /** Attempted and failed operations; a thrown operation counts as failed. */
  final class Failures extends Serializable {
    private var attemptedN = 0L
    private var failedN    = 0L
    private val first      = scala.collection.mutable.ArrayBuffer.empty[String]

    def attempted: Long = attemptedN
    def failed: Long    = failedN
    /** Up to ten failure messages, for the report. */
    def examples: Seq[String] = first.toSeq
    def fraction: Double = if (attemptedN == 0) 0.0 else failedN.toDouble / attemptedN

    /** Records one operation: `check` gives its failure, if any. */
    def record(what: String)(check: => Option[String]): Unit = {
      attemptedN += 1
      val failure =
        try check
        catch { case e: Exception => Some(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}") }
      failure.foreach { msg =>
        failedN += 1
        if (first.length < 10) first += s"$what: $msg"
      }
    }
  }
}
