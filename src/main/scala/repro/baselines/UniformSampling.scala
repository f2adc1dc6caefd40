package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType
import repro.core.{Agg, Estimate, Moments, Rect}

/** Row-by-row moment accumulation over US's single unsorted sample (Sec 2.1):
  * matching count / sum / sum-of-squares / extrema restricted to a predicate.
  * Leaf samples use the sorted kernel `LeafSample.moments` instead.
  */
private[baselines] object SampleStats {
  def moments(coords: Array[Array[Double]], values: Array[Double], q: Rect): Moments = {
    var i = 0; var k = 0; var s1 = 0.0; var s2 = 0.0
    var mn = Double.PositiveInfinity; var mx = Double.NegativeInfinity
    while (i < values.length) {
      if (q.contains(coords(i))) {
        val a = values(i)
        k += 1; s1 += a; s2 += a * a
        if (a < mn) mn = a
        if (a > mx) mx = a
      }
      i += 1
    }
    Moments(values.length, k, s1, s2, mn, mx)
  }

  /** Finite-population correction (paper footnote 1). */
  def fpc(n: Long, k: Int): Double =
    if (n <= 1) 0.0 else math.max(0.0, (n - k).toDouble / (n - 1).toDouble)
}

/** The US baseline: a single uniform sample of K tuples; SUM/COUNT/AVG via the
  * φ-transform of Sec 2.1 with CLT confidence intervals. No hard bounds, no
  * skipping: every query scans the whole sample.
  */
final class UniformSampleSynopsis(
    val coords: Array[Array[Double]],
    val values: Array[Double],
    val totalRows: Long,
    val lambda: Double = 2.576,
) extends Serializable {
  def k: Int = values.length
  def storageBytes: Long = values.length.toLong * (coords.headOption.map(_.length).getOrElse(0) + 1) * 8L

  def answer(q: Rect, agg: Agg): Estimate = {
    val m = SampleStats.moments(coords, values, q)
    val scale = if (m.ki == 0) 0.0 else totalRows.toDouble / m.ki
    agg match {
      case Agg.Sum =>
        val mean   = if (m.ki == 0) 0.0 else m.sumMatch / m.ki
        val varPhi = if (m.ki == 0) 0.0 else math.max(0.0, m.sumSqMatch / m.ki - mean * mean)
        val se2    = SampleStats.fpc(totalRows, m.ki) *
          totalRows.toDouble * totalRows * varPhi / math.max(1, m.ki)
        Estimate(scale * m.sumMatch, lambda * math.sqrt(se2), processedSamples = m.ki)
      case Agg.Count =>
        val mean   = if (m.ki == 0) 0.0 else m.kMatch.toDouble / m.ki
        val varPhi = math.max(0.0, mean - mean * mean)
        val se2    = SampleStats.fpc(totalRows, m.ki) * totalRows.toDouble * totalRows * varPhi / math.max(1, m.ki)
        Estimate(scale * m.kMatch, lambda * math.sqrt(se2), processedSamples = m.ki)
      case Agg.Avg =>
        if (m.kMatch == 0) Estimate(Double.NaN, Double.NaN, processedSamples = m.ki)
        else {
          val mean = m.sumMatch / m.kMatch
          val varM = math.max(0.0, m.sumSqMatch / m.kMatch - mean * mean)
          val se2  = SampleStats.fpc(totalRows, m.kMatch) * varM / m.kMatch
          Estimate(mean, lambda * math.sqrt(se2), processedSamples = m.ki)
        }
      case Agg.Min =>
        Estimate(if (m.kMatch == 0) Double.NaN else m.minMatch, Double.NaN, processedSamples = m.ki)
      case Agg.Max =>
        Estimate(if (m.kMatch == 0) Double.NaN else m.maxMatch, Double.NaN, processedSamples = m.ki)
    }
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
    val syn = new UniformSampleSynopsis(
      rows.map(r => Array.tabulate(d)(r.getDouble)),
      rows.map(_.getDouble(d)),
      n, lambda)
    (syn, (System.nanoTime() - t0) / 1000000L)
  }
}
