package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.Props.forAll

/** Pure unit + property tests for the dense-vector kernels. */
class VecOpsSpec extends AnyFunSuite {

  private val vecGen: Gen[Array[Float]] =
    for {
      d <- Gen.choose(1, 32)
      xs <- Gen.listOfN(d, Gen.choose(-100.0f, 100.0f))
    } yield xs.toArray

  private val pairGen: Gen[(Array[Float], Array[Float])] =
    for {
      d <- Gen.choose(1, 32)
      a <- Gen.listOfN(d, Gen.choose(-100.0f, 100.0f))
      b <- Gen.listOfN(d, Gen.choose(-100.0f, 100.0f))
    } yield (a.toArray, b.toArray)

  test("sqDistFF of a vector to itself is zero") {
    val a = Array(1.0f, -2.5f, 3.25f)
    assert(VecOps.sqDistFF(a, a) == 0.0)
  }

  test("sqDistFF known value") {
    assert(VecOps.sqDistFF(Array(0f, 0f), Array(3f, 4f)) == 25.0)
  }

  test("sqDistFF is symmetric") {
    forAll(pairGen) { case (a, b) =>
      assert(math.abs(VecOps.sqDistFF(a, b) - VecOps.sqDistFF(b, a)) < 1e-9)
    }
  }

  test("sqDistFF is non-negative") {
    forAll(pairGen) { case (a, b) => assert(VecOps.sqDistFF(a, b) >= 0.0) }
  }

  test("sqDistFD agrees with sqDistFF when the double vector mirrors the float one") {
    forAll(pairGen) { case (a, b) =>
      val bd = b.map(_.toDouble)
      val ff = VecOps.sqDistFF(a, b)
      // FF subtracts in float precision, FD in double — compare relatively
      assert(math.abs(VecOps.sqDistFD(a, bd) - ff) < 1e-5 * (1 + ff))
    }
  }

  test("dotFD agrees with dotFF on mirrored vectors") {
    forAll(pairGen) { case (a, b) =>
      assert(math.abs(VecOps.dotFD(a, b.map(_.toDouble)) - VecOps.dotFF(a, b)) < 1e-6)
    }
  }

  test("dotFF known value") {
    assert(VecOps.dotFF(Array(1f, 2f, 3f), Array(4f, 5f, 6f)) == 32.0)
  }

  test("normSqF equals self dot product") {
    forAll(vecGen) { a => assert(VecOps.normSqF(a) == VecOps.dotFF(a, a)) }
  }

  test("normSqD known value") {
    assert(VecOps.normSqD(Array(3.0, 4.0)) == 25.0)
  }

  test("squared-distance expansion identity: |a-b|^2 = |a|^2 - 2ab + |b|^2") {
    forAll(pairGen) { case (a, b) =>
      val lhs = VecOps.sqDistFF(a, b)
      val rhs = VecOps.normSqF(a) - 2 * VecOps.dotFF(a, b) + VecOps.normSqF(b)
      assert(math.abs(lhs - rhs) < 1e-4 * (1 + math.abs(rhs)))
    }
  }

  test("addTo then subFrom is identity") {
    forAll(pairGen) { case (a, b) =>
      val acc = a.map(_.toDouble)
      val orig = acc.clone()
      VecOps.addTo(acc, b)
      VecOps.subFrom(acc, b)
      acc.indices.foreach(i => assert(math.abs(acc(i) - orig(i)) < 1e-9))
    }
  }

  test("addTo accumulates componentwise") {
    val acc = Array(1.0, 2.0)
    VecOps.addTo(acc, Array(0.5f, -1.0f))
    assert(acc sameElements Array(1.5, 1.0))
  }

  test("addToDD accumulates double vectors") {
    val acc = Array(1.0, 2.0)
    VecOps.addToDD(acc, Array(0.25, 0.75))
    assert(acc sameElements Array(1.25, 2.75))
  }

  test("setFrom copies the float vector") {
    val dst = Array(9.0, 9.0)
    VecOps.setFrom(dst, Array(1.5f, 2.5f))
    assert(dst sameElements Array(1.5, 2.5))
  }

  test("centroidOf divides by the count") {
    assert(VecOps.centroidOf(Array(10.0, 20.0), 4) sameElements Array(2.5, 5.0))
  }

  // Values spread over six orders of magnitude, so that adding in another
  // order than the single kernels' would change the low bits.
  private def spread(rng: scala.util.Random, d: Int): Array[Float] =
    Array.fill(d)((rng.nextGaussian() * math.pow(10, rng.nextInt(6) - 2)).toFloat)

  for (d <- Seq(1, 2, 3, 64, 127)) {
    test(s"paired kernels equal their single kernels exactly (d=$d)") {
      val rng = new scala.util.Random(d)
      (0 until 50).foreach { _ =>
        val a = spread(rng, d)
        val c1 = spread(rng, d).map(_.toDouble); val c2 = if (rng.nextInt(5) == 0) c1 else spread(rng, d).map(_.toDouble)
        // a sits, widened to double, inside a longer buffer, between other rows
        val buf = (spread(rng, d) ++ a ++ spread(rng, d)).map(_.toDouble)
        val diff = VecOps.sqDistDiffDD(buf, d, c1, c2)
        assert(diff == VecOps.sqDistFD(a, c1) - VecOps.sqDistFD(a, c2))
        assert((diff <= 0.0) == (VecOps.sqDistFD(a, c1) <= VecOps.sqDistFD(a, c2)))
        val dots = Array.fill(4)(Double.NaN)
        VecOps.dotFD2(a, c1, c2, dots, 1)
        assert(dots(1) == VecOps.dotFD(a, c1) && dots(2) == VecOps.dotFD(a, c2))
        assert(dots(0).isNaN && dots(3).isNaN)
        val row = c1.clone(); val whole = c1.clone()
        VecOps.addRowTo(row, buf, d)
        VecOps.addTo(whole, a)
        assert(row sameElements whole)
      }
    }
  }

  for (d <- Seq(1, 2, 3, 64, 127)) {
    test(s"sqDistDiffDD2 equals two sqDistDiffDD calls exactly (d=$d)") {
      val rng = new scala.util.Random(100 + d)
      (0 until 50).foreach { _ =>
        val c1 = spread(rng, d).map(_.toDouble); val c2 = if (rng.nextInt(5) == 0) c1 else spread(rng, d).map(_.toDouble)
        // two rows next to each other, between other rows
        val buf = Array.fill(4)(spread(rng, d)).flatten.map(_.toDouble)
        val out = Array.fill(4)(Double.NaN)
        VecOps.sqDistDiffDD2(buf, d, c1, c2, out, 1)
        assert(out(1) == VecOps.sqDistDiffDD(buf, d, c1, c2))
        assert(out(2) == VecOps.sqDistDiffDD(buf, 2 * d, c1, c2))
        assert(out(0).isNaN && out(3).isNaN)
      }
    }
  }

  test("centroidOf does not mutate its input") {
    val comp = Array(10.0, 20.0)
    VecOps.centroidOf(comp, 2)
    assert(comp sameElements Array(10.0, 20.0))
  }
}
