package repro.baselines

import org.apache.spark.sql.DataFrame

/** VerdictDB substitute (Sec 5.5 / Table 2). VerdictDB pre-builds a "scramble"
  * — a shuffled uniform sample of the base table at a chosen ratio — and
  * answers every query by scanning only the scramble with scaled estimators.
  * The closed-source planner/variational-subsampling machinery is out of
  * scope; what the comparison exercises is the cost/accuracy trade: a 100%
  * scramble is near-exact but costs full-table storage and scan latency, a 10%
  * scramble is cheap but noisy. That trade is preserved exactly here, so a
  * scramble is a US synopsis of `ratio`·N rows.
  */
object VerdictLite {
  /** Builds a scramble of `ratio` of the base table in one Spark sampling pass. */
  def build(df: DataFrame, predCols: Seq[String], aggCol: String, ratio: Double,
            lambda: Double = 2.576, seed: Long = 42): (UniformSampleSynopsis, Long) = {
    require(ratio > 0 && ratio <= 1.0, s"scramble ratio $ratio out of (0,1]")
    val t0 = System.nanoTime()
    val n  = df.count()
    val (us, _) = UniformSampling.build(df, predCols, aggCol,
      math.max(1, math.ceil(ratio * n).toInt), lambda, seed)
    (us, (System.nanoTime() - t0) / 1000000L)
  }
}
