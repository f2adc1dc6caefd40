package repro.perfbench

import java.io.{File, PrintWriter}

import repro.core.{Agg, PartitionTree, PassSynopsis, Rect}

/** Runs the second half of one benchmark workload: it loads what [[Main]]
  * handed over, times the query stream, and prints the metrics; the last
  * line of standard output is one JSON object with `correct`, `attempted`,
  * `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
  * ones, with `--trace 1` the per-layer ones. The full record, stamped with
  * the environment, goes to `<out>/BENCH_<workload>_seed<seed>_trace<t>.json`,
  * and a traced run also writes its spans next to it.
  *
  * The timing runs in a JVM of its own, as a query server that loads a
  * synopsis built elsewhere would: the JIT compiles the answer path from this
  * stream alone, not from profiles the data generation, ground truth and
  * Spark builds left on shared code, and the heap holds only the synopsis and
  * the queries. Deserialization also lays each leaf's sample out
  * contiguously; on nyc1d-sf1 the synopsis as built read a p50 of 126–174 µs
  * over three JVMs at one seed, a deserialized copy 90–100 µs.
  *
  * Usage: `QueryMain <handoff file>`
  */
object QueryMain {

  /** Untimed query stream passes before timing, so the answer path is compiled. */
  val warmupSeconds = 2.0
  /** Fewest timed passes over the stream, so that each query's latency is the
    * fastest of at least this many timings.
    */
  val minPasses = 10

  /** Everything [[Main]] measured, with the synopsis and the query stream. */
  final case class Handoff(
      args: Main.Args,
      synopsis: PassSynopsis,
      queries: Array[Rect],
      aggs: Array[Agg],
      failures: Metrics.Failures,
      endToEnd: Seq[(String, Double)],
      layer: Seq[(String, Double)],
      info: Seq[(String, Any)],
      checks: Seq[(String, Any)],
      stamp: Json.Obj,
  )

  def save(path: String, h: Handoff): Unit = {
    val out = new java.io.ObjectOutputStream(new java.io.BufferedOutputStream(new java.io.FileOutputStream(path)))
    try out.writeObject(h) finally out.close()
  }

  def load(path: String): Handoff = {
    val in = new java.io.ObjectInputStream(new java.io.BufferedInputStream(new java.io.FileInputStream(path)))
    try in.readObject().asInstanceOf[Handoff] finally in.close()
  }

  /** Whether `answer` asks MCF for 0-variance nodes, as it does for AVG. */
  def zeroVarFor(syn: PassSynopsis, a: Agg): Boolean = syn.zeroVarRule && a == Agg.Avg

  def main(argv: Array[String]): Unit = {
    require(argv.length == 1, "usage: QueryMain <handoff file>")
    if (!run(load(argv(0)))) sys.exit(1)
  }

  def run(h: Handoff): Boolean = {
    val syn = h.synopsis; val qs = h.queries; val aggs = h.aggs; val n = qs.length
    val t0    = System.nanoTime()
    var sink  = 0.0 // consumes every result, so that no call can be optimized away
    val answerAt: Int => Unit = i => sink += syn.answer(qs(i), aggs(i)).value
    QueryTiming.timePasses(n, warmupSeconds, 1)(answerAt)
    val querySeconds = if (h.args.trace) h.args.seconds / 2 else h.args.seconds
    val passes    = QueryTiming.timePasses(n, querySeconds, minPasses)(answerAt)
    val latencies = Metrics.fastest(passes)
    val p50 = Metrics.percentile(latencies, 0.5)
    val p99 = Metrics.percentile(latencies, 0.99)

    val layer  = h.layer.toBuffer
    val checks = h.checks.toBuffer
    if (h.args.trace) {
      val mcfAt: Int => Unit = i => sink += PartitionTree.mcf(syn.root, qs(i), zeroVarFor(syn, aggs(i))).visited
      val traced    = QueryTiming.tracePasses(n, querySeconds, minPasses)(mcfAt, answerAt)
      val mcfUs     = Metrics.fastest(traced.map(_.map(_.mcfUs)))
      val answerUs  = Metrics.fastest(traced.map(_.map(_.answerUs)))
      val answerP50 = Metrics.percentile(answerUs, 0.5)
      layer ++= Seq(
        "mcf.us_p50" -> Metrics.percentile(mcfUs, 0.5),
        "answer.scan_est_us_p50" -> Metrics.percentile(answerUs.indices.map(i => answerUs(i) - mcfUs(i)).toArray, 0.5),
        "trace.query_overhead_us" -> (answerP50 - p50),
      )
      checks ++= Seq("traced_answer_us_p50" -> answerP50, "traced_passes" -> traced.length)
      writeSpans(new File(h.args.out, s"spans_${h.args.workload}_seed${h.args.seed}.jsonl"), traced.last)
    }
    val timingS = (System.nanoTime() - t0) / 1e9

    val info = Json.Obj(h.info ++ Seq(
      "query_passes" -> passes.length,
      "query_timing_s" -> timingS,
      "timer_ns" -> QueryTiming.timerNs(),
      "failed_frac" -> h.failures.fraction,
      "checks" -> Json.Obj(checks.toSeq),
      "sink" -> sink,
    ))
    val endToEnd = (h.endToEnd ++ Seq("query_p50_us" -> p50, "query_p99_us" -> p99)).toMap
    Main.report(h.args, Workload.byName(h.args.workload), h.failures, endToEnd, layer.toSeq, info, h.stamp)
  }

  /** Writes the spans of one traced pass, two per query. */
  private def writeSpans(f: File, pass: Array[QueryTiming.TracedQuery]): Unit = {
    val pw = new PrintWriter(f)
    try pass.foreach { q =>
      pw.println(Json.render(Json.obj("request" -> q.id, "span" -> "mcf", "parent" -> "query",
        "start_ns" -> q.mcfStartNs, "end_ns" -> q.mcfEndNs)))
      pw.println(Json.render(Json.obj("request" -> q.id, "span" -> "answer", "parent" -> "query",
        "start_ns" -> q.mcfEndNs, "end_ns" -> q.answerEndNs)))
    } finally pw.close()
  }
}
