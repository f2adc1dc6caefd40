package repro.core

/** What every approach answers a query with: an exact covered part plus a sum
  * over sampled strata of `(N_i/K_i)·Σ_match a`, with the CLT variance of
  * Sec 2.1/2.2. US is one stratum of the whole table, ST is every overlapping
  * stratum with no cover, AQP++/KD-US is a cover plus one gap stratum, and
  * PASS is a cover plus its partial leaves and 0-variance nodes.
  *
  * One accumulator per query: feed the cover nodes first, then the strata,
  * then read the answer. SUM and COUNT carry the finite-population correction
  * (footnote 1). AVG is the ratio estimator: Ĉ_i = N_i·k_i/K_i estimates a
  * stratum's matching rows and its CI weights each stratum's matching-sample
  * variance by Ĉ_i/N̂. AVG, MIN and MAX are NaN, CI included, when no covered
  * row exists and no sampled row matches.
  */
final class Strata(agg: Agg) {
  private var coverSumAcc = 0.0
  private var coverCntAcc = 0L
  private var matched     = 0L
  private var lo          = Double.PositiveInfinity
  private var hi          = Double.NegativeInfinity
  // SUM/COUNT: Σ (N_i/K_i)·Σ_match a and its variance.
  // AVG: cover sum + Σ Ĉ_i·mean_i, cover count + Σ Ĉ_i, and Σ Ĉ_i²·var_i/k_i.
  private var est      = 0.0
  private var estCnt   = 0.0
  private var variance = 0.0
  private var processedAcc = 0L

  def coverSum: Double = coverSumAcc
  def coverCount: Long = coverCntAcc
  /** Sampled tuples read: every stratum's whole sample K_i. */
  def processed: Long  = processedAcc
  /** Least covered or matching sampled value; +Infinity when there is none. */
  def observedMin: Double = lo
  /** Greatest covered or matching sampled value; -Infinity when there is none. */
  def observedMax: Double = hi

  /** Adds one exactly aggregated node. */
  def cover(sum: Double, count: Long, min: Double, max: Double): Unit = {
    coverSumAcc += sum
    coverCntAcc += count
    lo = math.min(lo, min)
    hi = math.max(hi, max)
    if (agg == Agg.Avg) { est += sum; estCnt += count }
  }

  /** Adds a stratum of `ni` rows whose sample, restricted to the query, has
    * moments `m`.
    */
  def sampled(ni: Long, m: Moments): Unit = {
    processedAcc += m.ki
    matched += m.kMatch
    agg match {
      case Agg.Sum | Agg.Count =>
        if (m.ki > 0) {
          val s1     = if (agg == Agg.Count) m.kMatch.toDouble else m.sumMatch
          val s2     = if (agg == Agg.Count) m.kMatch.toDouble else m.sumSqMatch
          val mean   = s1 / m.ki
          val varPhi = math.max(0.0, s2 / m.ki - mean * mean)
          est += ni.toDouble / m.ki * s1
          variance += Strata.fpc(ni, m.ki) * ni.toDouble * ni * varPhi / m.ki
        }
      case Agg.Avg =>
        if (m.ki > 0 && m.kMatch > 0) {
          val cHat  = ni.toDouble * m.kMatch / m.ki
          val meanM = m.sumMatch / m.kMatch
          val varM  = math.max(0.0, m.sumSqMatch / m.kMatch - meanM * meanM)
          est += cHat * meanM
          estCnt += cHat
          variance += cHat * cHat * varM / m.kMatch
        }
      case Agg.Min => lo = math.min(lo, m.minMatch)
      case Agg.Max => hi = math.max(hi, m.maxMatch)
    }
  }

  /** Adds an AVG stratum whose every row holds `value` (the Sec 3.4 0-variance
    * rule): its matching rows are estimated from `m`, its mean is exact.
    */
  def known(ni: Long, m: Moments, value: Double): Unit = {
    processedAcc += m.ki
    matched += m.kMatch
    if (m.ki > 0 && m.kMatch > 0) {
      val cHat = ni.toDouble * m.kMatch / m.ki
      est += cHat * value
      estCnt += cHat
    }
  }

  private def observed: Boolean = coverCntAcc > 0 || matched > 0

  def value: Double = agg match {
    case Agg.Sum   => coverSumAcc + est
    case Agg.Count => coverCntAcc + est
    case Agg.Avg   => if (observed) est / estCnt else Double.NaN
    case Agg.Min   => if (observed) lo else Double.NaN
    case Agg.Max   => if (observed) hi else Double.NaN
  }

  /** CI half width at multiplier `lambda`; NaN for MIN/MAX. */
  def ciHalf(lambda: Double): Double = agg match {
    case Agg.Sum | Agg.Count => lambda * math.sqrt(variance)
    case Agg.Avg             => if (observed) lambda * math.sqrt(variance / (estCnt * estCnt)) else Double.NaN
    case _                   => Double.NaN
  }

  def estimate(lambda: Double, lb: Double = Double.NaN, ub: Double = Double.NaN,
               skipRate: Double = 0.0): Estimate =
    Estimate(value, ciHalf(lambda), lb, ub, processedAcc, skipRate)
}

object Strata {
  /** Finite-population correction (footnote 1). */
  private def fpc(ni: Long, ki: Int): Double =
    if (ni <= 1) 0.0 else math.max(0.0, (ni - ki).toDouble / (ni - 1).toDouble)
}
