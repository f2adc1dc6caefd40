package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core._

/** The ST baseline (Sec 2.2): B equal-depth strata, K/B uniform samples each.
  * Unlike PASS there are no exact partition aggregates — every stratum that
  * overlaps the predicate is estimated from its sample, including fully
  * covered ones. Strata counts and samples are built with the same Spark
  * pipeline as PASS (groupBy + sampleBy) via [[repro.core.PassBuilder]].
  */
final class StratifiedSampleSynopsis(private val pass: PassSynopsis) extends Serializable {
  def totalRows: Long = pass.totalRows
  def lambda: Double  = pass.lambda
  def storedSamples: Long = pass.storedSamples
  def storageBytes: Long  = pass.storedSamples * (pass.root.bounds.dims + 1L) * 8L

  def answer(q: Rect, agg: Agg): Estimate = {
    // every overlapping stratum is estimated from its sample (no exact parts)
    val overlapping = pass.leaves.filter(l => !l.bounds.disjoint(q) && l.count > 0)
    var processed = 0L
    val strata = overlapping.map { l =>
      val m = pass.leafMoments(l.leafId, q)
      processed += m.ki
      (l, m)
    }
    agg match {
      case Agg.Sum | Agg.Count =>
        var est = 0.0; var variance = 0.0
        for ((l, m) <- strata if m.ki > 0) {
          val s1   = if (agg == Agg.Count) m.kMatch.toDouble else m.sumMatch
          val s2   = if (agg == Agg.Count) m.kMatch.toDouble else m.sumSqMatch
          val mean = s1 / m.ki
          val varPhi = math.max(0.0, s2 / m.ki - mean * mean)
          est += l.count.toDouble / m.ki * s1
          variance += SampleStats.fpc(l.count, m.ki) * l.count.toDouble * l.count * varPhi / m.ki
        }
        Estimate(est, lambda * math.sqrt(variance), processedSamples = processed)
      case Agg.Avg =>
        var estSum = 0.0; var estCnt = 0.0
        val terms = scala.collection.mutable.ArrayBuffer.empty[(Double, Double, Int)]
        for ((l, m) <- strata if m.ki > 0 && m.kMatch > 0) {
          val cHat = l.count.toDouble * m.kMatch / m.ki
          val mean = m.sumMatch / m.kMatch
          val varM = math.max(0.0, m.sumSqMatch / m.kMatch - mean * mean)
          estSum += cHat * mean; estCnt += cHat
          terms += ((cHat, varM, m.kMatch))
        }
        val value = if (estCnt == 0) Double.NaN else estSum / estCnt
        val se2 = terms.iterator.map { case (cHat, varM, kM) =>
          val w = cHat / estCnt; w * w * varM / kM
        }.sum
        Estimate(value, lambda * math.sqrt(se2), processedSamples = processed)
      case Agg.Min =>
        val mins = strata.collect { case (_, m) if m.kMatch > 0 => m.minMatch }
        Estimate(if (mins.isEmpty) Double.NaN else mins.min, Double.NaN, processedSamples = processed)
      case Agg.Max =>
        val maxs = strata.collect { case (_, m) if m.kMatch > 0 => m.maxMatch }
        Estimate(if (maxs.isEmpty) Double.NaN else maxs.max, Double.NaN, processedSamples = processed)
    }
  }
}

object StratifiedSampling {
  /** Builds B equal-depth strata with K/B samples each. */
  def build(df: DataFrame, predCols: Seq[String], aggCol: String, strata: Int, totalSamples: Long,
            optSampleSize: Int = 4096, lambda: Double = 2.576,
            seed: Long = 42): (StratifiedSampleSynopsis, Long) = {
    require(predCols.length == 1, "ST baseline is one-dimensional in the paper")
    val r = PassBuilder.build(
      df, predCols, aggCol,
      PassBuilder.EqualDepth1D(strata),
      PassBuilder.TotalBudget(totalSamples),
      optSampleSize, lambda, seed)
    (new StratifiedSampleSynopsis(r.synopsis), r.buildMillis)
  }
}
