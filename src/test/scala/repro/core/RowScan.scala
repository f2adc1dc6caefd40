package repro.core

/** The row-by-row leaf-sample scan that `LeafSample.moments` replaced, kept as
  * the reference the sorted, column-major kernel is checked against: every
  * row is tested with `Rect.contains`.
  */
object RowScan {

  def moments(rows: Array[Array[Double]], values: Array[Double], q: Rect): Moments = {
    var i  = 0
    var k  = 0
    var s1 = 0.0
    var s2 = 0.0
    var mn = Double.PositiveInfinity
    var mx = Double.NegativeInfinity
    while (i < values.length) {
      if (q.contains(rows(i))) {
        val a = values(i)
        k += 1; s1 += a; s2 += a * a
        if (a < mn) mn = a
        if (a > mx) mx = a
      }
      i += 1
    }
    Moments(values.length, k, s1, s2, mn, mx)
  }

  /** A synopsis over the same tree and samples as `syn` that answers from the
    * reference scan. The row views are built once, not per query.
    */
  def reference(syn: PassSynopsis): PassSynopsis = {
    val rows = syn.samples.map(_.coords)
    new PassSynopsis(syn.root, syn.leaves, syn.samples, syn.totalRows, syn.lambda, syn.zeroVarRule) {
      override private[repro] def leafMoments(leafId: Int, q: Rect): Moments =
        moments(rows(leafId), samples(leafId).values, q)
    }
  }

  /** True when `a` and `b` agree within `rel` relative error (NaNs agree). */
  def close(a: Double, b: Double, rel: Double = 1e-9): Boolean =
    a == b || (a.isNaN && b.isNaN) || math.abs(a - b) <= rel * math.max(math.abs(a), math.abs(b))

  /** Differences between two moments: counts and extrema exactly, sums within 1e-9. */
  def momentDiffs(got: Moments, want: Moments): Seq[String] = Seq(
    ("ki", got.ki == want.ki),
    ("kMatch", got.kMatch == want.kMatch),
    ("min", got.minMatch == want.minMatch),
    ("max", got.maxMatch == want.maxMatch),
    ("sum", close(got.sumMatch, want.sumMatch)),
    ("sumSq", close(got.sumSqMatch, want.sumSqMatch)),
  ).collect { case (name, false) => s"$name: $got vs $want" }

  /** Differences between two estimates, every field within 1e-9 relative. */
  def estimateDiffs(got: Estimate, want: Estimate): Seq[String] = Seq(
    ("value", close(got.value, want.value)),
    ("ciHalf", close(got.ciHalf, want.ciHalf)),
    ("lb", close(got.lb, want.lb)),
    ("ub", close(got.ub, want.ub)),
    ("processedSamples", got.processedSamples == want.processedSamples),
    ("skipRate", close(got.skipRate, want.skipRate)),
  ).collect { case (name, false) => s"$name: $got vs $want" }
}
