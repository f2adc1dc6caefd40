package repro.core

import org.apache.spark.sql.Row
import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

/** The sorted, column-major leaf sample: its sort, the build-side assembly
  * from collected rows, and its scan kernel against the row-by-row reference.
  */
class LeafSampleSpec extends AnyFunSuite with PropSupport {

  /** Few distinct values, so rows tie on column 0 and queries hit edges. */
  private val coord: Gen[Double] = Gen.frequency(
    8 -> Gen.choose(-5, 5).map(_.toDouble),
    1 -> Gen.oneOf(-0.0, Double.NegativeInfinity, Double.PositiveInfinity),
  )
  private val coordOrNaN: Gen[Double] = Gen.frequency(6 -> coord, 1 -> Gen.const(Double.NaN))
  private val value: Gen[Double] = Gen.choose(-100.0, 100.0)

  private def rowKey(row: Seq[Double]): Seq[Long] = row.map(java.lang.Double.doubleToLongBits)

  test("sortWithPerm orders like Arrays.sort and permutes alongside") {
    val rnd  = new scala.util.Random(3)
    val pool = Array(Double.NaN, -0.0, 0.0, Double.NegativeInfinity, Double.PositiveInfinity)
    val orig = Array.fill(5000)(if (rnd.nextInt(10) == 0) pool(rnd.nextInt(pool.length))
                                else rnd.nextInt(300).toDouble)
    val keys = orig.clone()
    val perm = Array.range(0, keys.length)
    LeafSample.sortWithPerm(keys, perm, 0, keys.length)
    val want = orig.clone()
    java.util.Arrays.sort(want)
    assert(keys.map(java.lang.Double.doubleToLongBits).sameElements(
      want.map(java.lang.Double.doubleToLongBits)))
    assert(perm.sorted.sameElements(orig.indices))
    assert(perm.indices.forall(i => java.lang.Double.compare(orig(perm(i)), keys(i)) == 0))
  }

  test("leafSamples: each leaf is sorted on column 0 and holds exactly its rows") {
    val gen = for {
      d      <- Gen.choose(1, 3)
      leaves <- Gen.choose(1, 5)
      n      <- Gen.choose(0, 80)
      rows   <- Gen.listOfN(n, for {
                  xs <- Gen.listOfN(d, coordOrNaN)
                  a  <- value
                  id <- Gen.choose(0, leaves - 1)
                } yield (xs, a, id))
    } yield (d, leaves, rows)
    checkProp(Prop.forAll(gen) { case (d, leaves, rows) =>
      val built = PassBuilder.leafSamples(
        rows.map { case (xs, a, id) => Row.fromSeq(xs :+ a :+ id) }.toArray, d, leaves)
      built.length == leaves && (0 until leaves).forall { id =>
        val s     = built(id)
        val got   = s.coords.toSeq.zip(s.values).map { case (xs, a) => rowKey(xs.toSeq :+ a) }
        val want  = rows.collect { case (xs, a, `id`) => rowKey(xs :+ a) }
        val c0    = if (s.size == 0) Array.empty[Double] else s.cols(0)
        val sortedOn0 = c0.indices.drop(1).forall(i => java.lang.Double.compare(c0(i - 1), c0(i)) <= 0)
        sortedOn0 && got.sortBy(_.mkString(",")) == want.sortBy(_.mkString(","))
      }
    }, minSuccessful = 200)
  }

  test("moments equals the row-by-row scan over the unsorted rows") {
    val gen = for {
      d    <- Gen.choose(1, 3)
      n    <- Gen.choose(0, 60)
      rows <- Gen.listOfN(n, Gen.listOfN(d, coord))
      vals <- Gen.listOfN(n, value)
      los  <- Gen.listOfN(d, coord)
      his  <- Gen.listOfN(d, coord)
    } yield (d, rows.map(_.toArray).toArray, vals.toArray, Rect(los.toArray, his.toArray))
    checkProp(Prop.forAll(gen) { case (d, rows, vals, q) =>
      val cols = Array.tabulate(d)(j => rows.map(_(j)))
      val got  = LeafSample(cols, vals.clone()).moments(q)
      val want = RowScan.moments(rows, vals, q)
      // sums are taken in another order; compare against the scale of the terms
      val scale = vals.map(math.abs).sum
      got.ki == want.ki && got.kMatch == want.kMatch &&
        got.minMatch == want.minMatch && got.maxMatch == want.maxMatch &&
        math.abs(got.sumMatch - want.sumMatch) <= 1e-9 * scale &&
        math.abs(got.sumSqMatch - want.sumSqMatch) <= 1e-9 * scale * scale
    }, minSuccessful = 500)
  }

  test("a sample row with a NaN coordinate matches no range") {
    // rows: (NaN, 0.5) -> 20, (1, 0.5) -> 10, (3, NaN) -> 40
    val s = LeafSample(Array(Array(Double.NaN, 1.0, 3.0), Array(0.5, 0.5, Double.NaN)),
                       Array(20.0, 10.0, 40.0))
    assert(s.cols(0)(2).isNaN, "NaN sorts last")
    val all = Rect.full(2)
    assert(all.contains(Array(Double.NaN, 0.5)), "Rect.contains counts a NaN coordinate in")
    assert(RowScan.moments(s.coords, s.values, all).kMatch == 3)
    val m = s.moments(all)
    assert(m.ki == 3 && m.kMatch == 1 && m.sumMatch == 10.0, m)
    // 1-D, through a synopsis: the NaN row is in the leaf's sample but in no answer
    val leaf = PartitionTree.leaf(Rect.range(0.0, 10.0), 0)
    leaf.count = 2; leaf.sum = 30.0; leaf.min = 10.0; leaf.max = 20.0
    val syn = new PassSynopsis(PartitionTree.build1D(Array(leaf)), Array(leaf),
      Array(LeafSample(Array(Array(Double.NaN, 1.0)), Array(20.0, 10.0))), totalRows = 2)
    val est = syn.answer(Rect.range(0.0, 5.0), Agg.Sum)
    assert(est.processedSamples == 2 && est.value == 2.0 / 2 * 10.0, est)
  }
}
