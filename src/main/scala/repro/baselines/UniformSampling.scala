package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType
import repro.core.{Agg, Estimate, LeafSample, Rect, Strata, Synopsis}

/** The US baseline: a single uniform sample of K tuples; SUM/COUNT/AVG via the
  * φ-transform of Sec 2.1 with CLT confidence intervals — one stratum of all
  * `totalRows` rows. No hard bounds, no skipping: every query reads the whole
  * sample, scanned through the same sorted kernel as PASS's leaves.
  */
final class UniformSampleSynopsis(
    val sample: LeafSample,
    val totalRows: Long,
    val lambda: Double = 2.576,
) extends Synopsis with Serializable {
  def k: Int = sample.size
  def storageBytes: Long = k.toLong * (sample.cols.length + 1) * 8L

  def answer(q: Rect, agg: Agg): Estimate = {
    val s = new Strata(agg)
    s.sampled(totalRows, sample.moments(q))
    s.estimate(lambda)
  }
}

object UniformSampling {
  /** Draws K uniform samples with one Spark pass and collects them. */
  def build(df: DataFrame, predCols: Seq[String], aggCol: String, k: Int,
            lambda: Double = 2.576, seed: Long = 42): (UniformSampleSynopsis, Long) = {
    val t0   = System.nanoTime()
    val cols = (predCols :+ aggCol).map(c => col(c).cast(DoubleType).as(c))
    val proj = df.select(cols: _*)
    val n    = proj.count()
    val frac = if (n == 0) 0.0 else math.min(1.0, k.toDouble / n)
    val rows = proj.sample(withReplacement = false, frac, seed).collect()
    val d    = predCols.length
    val sample = LeafSample(Array.tabulate(d)(j => rows.map(_.getDouble(j))), rows.map(_.getDouble(d)))
    (new UniformSampleSynopsis(sample, n, lambda), (System.nanoTime() - t0) / 1000000L)
  }
}
