"""Byte-identical ``--no-timings`` output: for each input, each invocation's
exit code and result lines (and, for ``compile``, the written file) hash to
the committed SHA-256 digest.  The ``#`` meta lines carry paths and are left
out.  The inputs are the bundled theories, ``rot-12``, and a 12-edge
``reach`` and a 12-link ``succ`` input of the benchmark's workloads; each
invocation runs in the input's directory on relative paths."""

import hashlib
import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from defeasidl.cli import main
from defeasidl.parser import format_theory
import corpus
from test_grounding import rot_theory

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads

INPUTS = {name: lambda name=name: corpus.path(name).read_text(encoding="utf-8")
          for name in corpus.names()}
INPUTS["rot-12"] = lambda: format_theory(rot_theory(12))
INPUTS["reach-12"] = lambda: workloads.reach_theory(workloads.random_digraph(random.Random(1), 12))
INPUTS["succ-12"] = lambda: workloads.succ_theory(workloads.chain_names(random.Random(1), 12))

MODES = ("team", "individual")


def invocations():
    """(key, argv, written file or None) in run order: each ``eval`` reads
    a file that a ``compile`` before it wrote."""
    for logic in ("dpar", "dpar_star"):
        for backend in ("wf", "stratified", "hybrid", "oracle"):
            yield (f"solve {logic} {backend}",
                   ["solve", "in.dfl", "--logic", logic, "--backend", backend, "--show-lambda"], None)
        for backend in ("wf", "stratified"):
            yield (f"solve {logic} {backend} --three-valued",
                   ["solve", "in.dfl", "--logic", logic, "--backend", backend, "--three-valued"], None)
    yield "analyze", ["analyze", "in.dfl"], None
    yield "check", ["check", "in.dfl"], None
    for mode in MODES:
        yield f"compile {mode}", ["compile", "in.dfl", "--mode", mode, "-o", f"{mode}.dl"], f"{mode}.dl"
    for mode in MODES:
        for semantics in ("wf", "fitting", "stratified"):
            yield f"eval {mode} {semantics}", ["eval", f"{mode}.dl", "--semantics", semantics], None


def digests(directory: Path, text: str) -> dict[str, str]:
    (directory / "in.dfl").write_text(text, encoding="utf-8")
    found = {}
    for key, argv, written in invocations():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["--no-timings", *argv])
        lines = [line for line in buffer.getvalue().splitlines() if not line.startswith("#")]
        data = "\n".join([str(code), *lines])
        if written is not None:
            data += "\n" + (directory / written).read_text(encoding="utf-8")
        found[key] = hashlib.sha256(data.encode("utf-8")).hexdigest()
    return found


EXPECTED = {
    "chain": {
        "solve dpar wf":
            "a522703c0de4704ae59a836d572f9e83174329d61d0667b03227c0f7049dbf4b",
        "solve dpar stratified":
            "a522703c0de4704ae59a836d572f9e83174329d61d0667b03227c0f7049dbf4b",
        "solve dpar hybrid":
            "a522703c0de4704ae59a836d572f9e83174329d61d0667b03227c0f7049dbf4b",
        "solve dpar oracle":
            "a522703c0de4704ae59a836d572f9e83174329d61d0667b03227c0f7049dbf4b",
        "solve dpar wf --three-valued":
            "01f27dcef8ceeab16898ca0904b1cc1f1b3fc9cebaab2a59f4dcba08de728e45",
        "solve dpar stratified --three-valued":
            "01f27dcef8ceeab16898ca0904b1cc1f1b3fc9cebaab2a59f4dcba08de728e45",
        "solve dpar_star wf":
            "bb9c07d1459e576984f3452dc94ccf34acc145efd9a22c1148c79126a7a6b59a",
        "solve dpar_star stratified":
            "bb9c07d1459e576984f3452dc94ccf34acc145efd9a22c1148c79126a7a6b59a",
        "solve dpar_star hybrid":
            "bb9c07d1459e576984f3452dc94ccf34acc145efd9a22c1148c79126a7a6b59a",
        "solve dpar_star oracle":
            "bb9c07d1459e576984f3452dc94ccf34acc145efd9a22c1148c79126a7a6b59a",
        "solve dpar_star wf --three-valued":
            "d4e0b2d4ae59c652c2ab11d3f876ad318629ab41ac31aee04dd5dec7cac61c28",
        "solve dpar_star stratified --three-valued":
            "d4e0b2d4ae59c652c2ab11d3f876ad318629ab41ac31aee04dd5dec7cac61c28",
        "analyze":
            "784ac136f0872571cf3deec8a6d9ae133739ec5dd8e2f9942426c8067f224f0b",
        "check":
            "d0d2e19a96ca4fae878f6a7d2dac14f2306ae3cffb5097507e5a9712381f21f3",
        "compile team":
            "33ac0189e979ee577c4d5e66671c4a9d6549bd427ed689fd6eed3a2ff2313cc6",
        "compile individual":
            "08da09a34c635c43ab304b71d144e6b637f7d758d40991fef6c55a363777dd79",
        "eval team wf":
            "7a2723b10c9f7b8d716e2c907bce3852ddf592c4e1749552ba298bcba14acddb",
        "eval team fitting":
            "7a2723b10c9f7b8d716e2c907bce3852ddf592c4e1749552ba298bcba14acddb",
        "eval team stratified":
            "7a2723b10c9f7b8d716e2c907bce3852ddf592c4e1749552ba298bcba14acddb",
        "eval individual wf":
            "b4df7989f26b7ff340dd00405430bb4ca8785e26667c23eead1272a424f5fd7f",
        "eval individual fitting":
            "b4df7989f26b7ff340dd00405430bb4ca8785e26667c23eead1272a424f5fd7f",
        "eval individual stratified":
            "b4df7989f26b7ff340dd00405430bb4ca8785e26667c23eead1272a424f5fd7f",
    },
    "nonstrat": {
        "solve dpar wf":
            "29dbf56c9b4a44daf7da1c68dacacd9cbc9404182dfe11592d67d868b78a6283",
        "solve dpar stratified":
            "9d0b3615796033eccc71217022561b4b307f4a80472d886bc5fba6a8de6a854d",
        "solve dpar hybrid":
            "29dbf56c9b4a44daf7da1c68dacacd9cbc9404182dfe11592d67d868b78a6283",
        "solve dpar oracle":
            "29dbf56c9b4a44daf7da1c68dacacd9cbc9404182dfe11592d67d868b78a6283",
        "solve dpar wf --three-valued":
            "b7e473a5e5fea6c74b943a367a2e4a6056ff6f685221bcae9c5e7a15762e0bf9",
        "solve dpar stratified --three-valued":
            "341c32594c90e34fc8d2116832620317b9358f4cf24d67f54907e972e8201798",
        "solve dpar_star wf":
            "71c6069ed58b7ba43452845779e5f62087f5b6ce5032ca1591ccf8a966458288",
        "solve dpar_star stratified":
            "71c6069ed58b7ba43452845779e5f62087f5b6ce5032ca1591ccf8a966458288",
        "solve dpar_star hybrid":
            "71c6069ed58b7ba43452845779e5f62087f5b6ce5032ca1591ccf8a966458288",
        "solve dpar_star oracle":
            "71c6069ed58b7ba43452845779e5f62087f5b6ce5032ca1591ccf8a966458288",
        "solve dpar_star wf --three-valued":
            "3ff49aba26717633d5b3489013a17cee0e7d08682a4810b7a3c3eab52e07f937",
        "solve dpar_star stratified --three-valued":
            "3ff49aba26717633d5b3489013a17cee0e7d08682a4810b7a3c3eab52e07f937",
        "analyze":
            "919d3daeffc0a91d92598448d88d79b3419282d1c73a5b039c6a1eb2497ff1e0",
        "check":
            "d0d2e19a96ca4fae878f6a7d2dac14f2306ae3cffb5097507e5a9712381f21f3",
        "compile team":
            "12230be51945263f69f12609eda1d98abda9777b6e82da4b75ce7774c8019ce8",
        "compile individual":
            "f881539f66f0a660a73c85bb3a30c2011922d56ee63c2051e0162f13db2153ff",
        "eval team wf":
            "0f75d833664cb950139c803d95891aaccc9fe4a6be5466100432e20dd6e1cc97",
        "eval team fitting":
            "d7debdd36171c79fca3775a5162b23341f9a66097d7a577498c524ab9274583c",
        "eval team stratified":
            "ace15d6c8f394652f033861961525204b083e5cf9d5afc3ac06a2e142c939c10",
        "eval individual wf":
            "98095c16b7d80ed21dc3d45dde175c6ec7894fc3a23a2fe5c901be5c8f9e72e4",
        "eval individual fitting":
            "1c5f924365572a7f3673be68369e0a816da4d5e4a22da5a654d803ab4349aef7",
        "eval individual stratified":
            "98095c16b7d80ed21dc3d45dde175c6ec7894fc3a23a2fe5c901be5c8f9e72e4",
    },
    "platypus": {
        "solve dpar wf":
            "97de39ccb4055ebb13d837289fe01ab4e532891776b3b31e775ceb7ac65de5d9",
        "solve dpar stratified":
            "97de39ccb4055ebb13d837289fe01ab4e532891776b3b31e775ceb7ac65de5d9",
        "solve dpar hybrid":
            "97de39ccb4055ebb13d837289fe01ab4e532891776b3b31e775ceb7ac65de5d9",
        "solve dpar oracle":
            "97de39ccb4055ebb13d837289fe01ab4e532891776b3b31e775ceb7ac65de5d9",
        "solve dpar wf --three-valued":
            "fc0bdcea592afb071388a852ccd8cc768dc9d9693031295c3268512539c5b8ae",
        "solve dpar stratified --three-valued":
            "fc0bdcea592afb071388a852ccd8cc768dc9d9693031295c3268512539c5b8ae",
        "solve dpar_star wf":
            "2b8176cecf61456812c49db0363e61935f79d9086e20bfc20e0c298b24ad3083",
        "solve dpar_star stratified":
            "2b8176cecf61456812c49db0363e61935f79d9086e20bfc20e0c298b24ad3083",
        "solve dpar_star hybrid":
            "2b8176cecf61456812c49db0363e61935f79d9086e20bfc20e0c298b24ad3083",
        "solve dpar_star oracle":
            "2b8176cecf61456812c49db0363e61935f79d9086e20bfc20e0c298b24ad3083",
        "solve dpar_star wf --three-valued":
            "31319a3a7b00283af2b07bd264b557bf50fb0d1157cf0adb04782669402d5e09",
        "solve dpar_star stratified --three-valued":
            "31319a3a7b00283af2b07bd264b557bf50fb0d1157cf0adb04782669402d5e09",
        "analyze":
            "3c922fb51026796cd49aab6dbb6e23ca435203dfaddb741907479ae16a395696",
        "check":
            "d0d2e19a96ca4fae878f6a7d2dac14f2306ae3cffb5097507e5a9712381f21f3",
        "compile team":
            "ac4f3bc5441ce0e70dbb383e2057ca6f12e5d1970483c234698c7ff708cca1b7",
        "compile individual":
            "5fbcb2c2383901798d58764b1333a0da2d61023c8f01c523f9f3229a76d90dd1",
        "eval team wf":
            "18037f6db31599e16de1881ed1a9b37058d3c01358c8e5a53be3c9e61c0f4f76",
        "eval team fitting":
            "18037f6db31599e16de1881ed1a9b37058d3c01358c8e5a53be3c9e61c0f4f76",
        "eval team stratified":
            "18037f6db31599e16de1881ed1a9b37058d3c01358c8e5a53be3c9e61c0f4f76",
        "eval individual wf":
            "e67ecd76fb45262d5355eda363ad956c56d34d469cb3a71f64ca470c2b7aab71",
        "eval individual fitting":
            "e67ecd76fb45262d5355eda363ad956c56d34d469cb3a71f64ca470c2b7aab71",
        "eval individual stratified":
            "e67ecd76fb45262d5355eda363ad956c56d34d469cb3a71f64ca470c2b7aab71",
    },
    "reach-12": {
        "solve dpar wf":
            "c783f0dc6374346fa151a1ea1ac53afa9d7bb8dae059b950266687010f3f4706",
        "solve dpar stratified":
            "9d0b3615796033eccc71217022561b4b307f4a80472d886bc5fba6a8de6a854d",
        "solve dpar hybrid":
            "c783f0dc6374346fa151a1ea1ac53afa9d7bb8dae059b950266687010f3f4706",
        "solve dpar oracle":
            "c783f0dc6374346fa151a1ea1ac53afa9d7bb8dae059b950266687010f3f4706",
        "solve dpar wf --three-valued":
            "6a1cedbbcb7b6db03bcb64849308af749570786993d2c3394772b806b9cdd67f",
        "solve dpar stratified --three-valued":
            "341c32594c90e34fc8d2116832620317b9358f4cf24d67f54907e972e8201798",
        "solve dpar_star wf":
            "326cc9a008fe6a22d091db9d9d1dc5f04682172162eb61e89bb3281ed4be7ade",
        "solve dpar_star stratified":
            "326cc9a008fe6a22d091db9d9d1dc5f04682172162eb61e89bb3281ed4be7ade",
        "solve dpar_star hybrid":
            "326cc9a008fe6a22d091db9d9d1dc5f04682172162eb61e89bb3281ed4be7ade",
        "solve dpar_star oracle":
            "326cc9a008fe6a22d091db9d9d1dc5f04682172162eb61e89bb3281ed4be7ade",
        "solve dpar_star wf --three-valued":
            "9c2f2b9ead5d9274b4dfd5bec2149db0e5343301916862061bf7cf7f7f0986bb",
        "solve dpar_star stratified --three-valued":
            "9c2f2b9ead5d9274b4dfd5bec2149db0e5343301916862061bf7cf7f7f0986bb",
        "analyze":
            "d1e86f45600b642f3d2d88a4b9b79fb47acef966160c94ea1e7a7e75b7512328",
        "check":
            "d0d2e19a96ca4fae878f6a7d2dac14f2306ae3cffb5097507e5a9712381f21f3",
        "compile team":
            "ae09c77e4885f7c1ca4e1d0e2ba5e579534b43c543b4cabec64eb3ccad1c3d67",
        "compile individual":
            "39a4080bf67f0a643ccfeec243f483626a1dbe36a76503e1423eeecd6a493028",
        "eval team wf":
            "553341166348d3ea5c38155154c11c35ca19df04973b9f6191b3fcb08ce9c86a",
        "eval team fitting":
            "94d7e5fff474a892155987caa1fa7db83606acb62aa22b3c9b22a392f7abbe6a",
        "eval team stratified":
            "ace15d6c8f394652f033861961525204b083e5cf9d5afc3ac06a2e142c939c10",
        "eval individual wf":
            "1ea6d6cc17a2e272e1e7aa92a3d8090518e3c506b88f4b18334366645f3d3a84",
        "eval individual fitting":
            "c356d62290d893b9ef599f58955b8fa524f4595f28371b22884569f83e23de78",
        "eval individual stratified":
            "1ea6d6cc17a2e272e1e7aa92a3d8090518e3c506b88f4b18334366645f3d3a84",
    },
    "rot-12": {
        "solve dpar wf":
            "4db4df940a75fc75a143ba4cdef67614073ae18cf846fc7391426f16902ed289",
        "solve dpar stratified":
            "4db4df940a75fc75a143ba4cdef67614073ae18cf846fc7391426f16902ed289",
        "solve dpar hybrid":
            "4db4df940a75fc75a143ba4cdef67614073ae18cf846fc7391426f16902ed289",
        "solve dpar oracle":
            "4db4df940a75fc75a143ba4cdef67614073ae18cf846fc7391426f16902ed289",
        "solve dpar wf --three-valued":
            "2ca7899c5b1cf63000f068ea53ff23827e802cc2c1ef900cc778599a9473c71e",
        "solve dpar stratified --three-valued":
            "2ca7899c5b1cf63000f068ea53ff23827e802cc2c1ef900cc778599a9473c71e",
        "solve dpar_star wf":
            "e58372052f19bd7d553fb33b37fb858dbedb73c055aaed69454790bcf0194304",
        "solve dpar_star stratified":
            "e58372052f19bd7d553fb33b37fb858dbedb73c055aaed69454790bcf0194304",
        "solve dpar_star hybrid":
            "e58372052f19bd7d553fb33b37fb858dbedb73c055aaed69454790bcf0194304",
        "solve dpar_star oracle":
            "e58372052f19bd7d553fb33b37fb858dbedb73c055aaed69454790bcf0194304",
        "solve dpar_star wf --three-valued":
            "cf0512af0493789393b98859102e1d57f3ae3cd0128e95305512402191257ed7",
        "solve dpar_star stratified --three-valued":
            "cf0512af0493789393b98859102e1d57f3ae3cd0128e95305512402191257ed7",
        "analyze":
            "27458b26158cd2cb5fda6fcdfbba62f935827334c62f953564d716df247ee917",
        "check":
            "d0d2e19a96ca4fae878f6a7d2dac14f2306ae3cffb5097507e5a9712381f21f3",
        "compile team":
            "80fec599bdb4d91aba270f3849189c75352f0a84ecadab5b36f37f29b105a831",
        "compile individual":
            "a6d226ff264f1d7fb91fe02df1add1d9f994e52b5f8b0e5a8bab613243a4bc6d",
        "eval team wf":
            "6256a5b12c2c6cff70b91f402eae9664b6fcbaa00cb616d0b5fd5fd10a52bdd4",
        "eval team fitting":
            "261781133950ceef5021b7e6bd6657b6f8175ab9c37cedb052e052261ed357a2",
        "eval team stratified":
            "6256a5b12c2c6cff70b91f402eae9664b6fcbaa00cb616d0b5fd5fd10a52bdd4",
        "eval individual wf":
            "d4560b5579760bb5c2ddeaad4a82a0bf1b36f4480d44edde7df0d97fc3f484ff",
        "eval individual fitting":
            "00a08807ebeb6ae5b3d42e1615c56b85a9af8c2b6f36b140f300f52d13872917",
        "eval individual stratified":
            "d4560b5579760bb5c2ddeaad4a82a0bf1b36f4480d44edde7df0d97fc3f484ff",
    },
    "selfloop": {
        "solve dpar wf":
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "solve dpar stratified":
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "solve dpar hybrid":
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "solve dpar oracle":
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "solve dpar wf --three-valued":
            "ed54c13c5b63b19131e6e91bf64b763ebba8080becb4f32ecf958b9d22efbf4f",
        "solve dpar stratified --three-valued":
            "ed54c13c5b63b19131e6e91bf64b763ebba8080becb4f32ecf958b9d22efbf4f",
        "solve dpar_star wf":
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "solve dpar_star stratified":
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "solve dpar_star hybrid":
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "solve dpar_star oracle":
            "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        "solve dpar_star wf --three-valued":
            "6aed537b6925ff4fe6483df29c3d12dda0ad0502abacfc10c8730934e2d9fc7c",
        "solve dpar_star stratified --three-valued":
            "6aed537b6925ff4fe6483df29c3d12dda0ad0502abacfc10c8730934e2d9fc7c",
        "analyze":
            "8c693d8b94ca6273ed6c368124930e635f1108b4f2a28899337be7d5ef650f30",
        "check":
            "d0d2e19a96ca4fae878f6a7d2dac14f2306ae3cffb5097507e5a9712381f21f3",
        "compile team":
            "536598ec4ba203415e9864323edbcda2305d4d7fe640976f3b652dd0196b2936",
        "compile individual":
            "e2e9be7ef42f81a234963118ae49e6480e24751f1d5aa4c6322084d4db8d9d05",
        "eval team wf":
            "fa00f860eb0e860c18435c0a2a82f5e402a0d28aeedeacee7aa33d0e665a8257",
        "eval team fitting":
            "41418d2af758a0b421976ffe4d9f83048bfed82d88c9942709d14413e4bb1d56",
        "eval team stratified":
            "fa00f860eb0e860c18435c0a2a82f5e402a0d28aeedeacee7aa33d0e665a8257",
        "eval individual wf":
            "c75591498619b6dcf0274d1d41e2f3a6bd07744a87bf5dc9cb4623a7ce5c3f26",
        "eval individual fitting":
            "c6d352e87337c59a6ca8104a612e64b5ee86fb3abd6efe9aaa4b9cf4877da929",
        "eval individual stratified":
            "c75591498619b6dcf0274d1d41e2f3a6bd07744a87bf5dc9cb4623a7ce5c3f26",
    },
    "succ-12": {
        "solve dpar wf":
            "5efefb606a75daad3a7da5a360fd0cf5a8b55ff914197186bebb5365d90a9328",
        "solve dpar stratified":
            "9d0b3615796033eccc71217022561b4b307f4a80472d886bc5fba6a8de6a854d",
        "solve dpar hybrid":
            "5efefb606a75daad3a7da5a360fd0cf5a8b55ff914197186bebb5365d90a9328",
        "solve dpar oracle":
            "5efefb606a75daad3a7da5a360fd0cf5a8b55ff914197186bebb5365d90a9328",
        "solve dpar wf --three-valued":
            "418ee7ec413b5e33ffadb358294e7e99a57f28f6f54623c03893b7e15c8a703f",
        "solve dpar stratified --three-valued":
            "341c32594c90e34fc8d2116832620317b9358f4cf24d67f54907e972e8201798",
        "solve dpar_star wf":
            "11d119ca1304eab6687e11d9640797a210d8fed93352ccd34a8824817c185dd4",
        "solve dpar_star stratified":
            "11d119ca1304eab6687e11d9640797a210d8fed93352ccd34a8824817c185dd4",
        "solve dpar_star hybrid":
            "11d119ca1304eab6687e11d9640797a210d8fed93352ccd34a8824817c185dd4",
        "solve dpar_star oracle":
            "11d119ca1304eab6687e11d9640797a210d8fed93352ccd34a8824817c185dd4",
        "solve dpar_star wf --three-valued":
            "e6580a5e2795b3819721be5b590421c1abd046b97eb16718a57a3e094b14b5de",
        "solve dpar_star stratified --three-valued":
            "e6580a5e2795b3819721be5b590421c1abd046b97eb16718a57a3e094b14b5de",
        "analyze":
            "4bdd3257d4852a42c14da6fa5c476cc9146b7f6be37ec3a7abb00c772c0fbad6",
        "check":
            "d0d2e19a96ca4fae878f6a7d2dac14f2306ae3cffb5097507e5a9712381f21f3",
        "compile team":
            "0a5d7639fd1de5ee5978eff0969d2573a8c8c9792a508ce80c7a9b0ac07c6548",
        "compile individual":
            "da8b2a0b31df254495ff77de3514ae0f2b8d2e9a45400cdd8a09e3fc6bbb6c5e",
        "eval team wf":
            "23511a07414afea3c64787e205c612f8edaecacee367ffe73e251130783855b0",
        "eval team fitting":
            "23511a07414afea3c64787e205c612f8edaecacee367ffe73e251130783855b0",
        "eval team stratified":
            "ace15d6c8f394652f033861961525204b083e5cf9d5afc3ac06a2e142c939c10",
        "eval individual wf":
            "6788bc78888e3cff773e7a99ede9fdd53c6d2aa69aa59a7536fc1c53dae37673",
        "eval individual fitting":
            "6788bc78888e3cff773e7a99ede9fdd53c6d2aa69aa59a7536fc1c53dae37673",
        "eval individual stratified":
            "6788bc78888e3cff773e7a99ede9fdd53c6d2aa69aa59a7536fc1c53dae37673",
    },
    "tweety": {
        "solve dpar wf":
            "97ca6cfa4630c42e3fc823f423850e7a7c3e1d87aceb05948ec38724c5e126a4",
        "solve dpar stratified":
            "97ca6cfa4630c42e3fc823f423850e7a7c3e1d87aceb05948ec38724c5e126a4",
        "solve dpar hybrid":
            "97ca6cfa4630c42e3fc823f423850e7a7c3e1d87aceb05948ec38724c5e126a4",
        "solve dpar oracle":
            "97ca6cfa4630c42e3fc823f423850e7a7c3e1d87aceb05948ec38724c5e126a4",
        "solve dpar wf --three-valued":
            "684c793a855e2673a58e3c924be0e6dfe88edf813808090441ac62f36034e806",
        "solve dpar stratified --three-valued":
            "684c793a855e2673a58e3c924be0e6dfe88edf813808090441ac62f36034e806",
        "solve dpar_star wf":
            "aa2366f49cd95f49900cd42e84144e5f83d346eb712d74507775ee32745a68f9",
        "solve dpar_star stratified":
            "aa2366f49cd95f49900cd42e84144e5f83d346eb712d74507775ee32745a68f9",
        "solve dpar_star hybrid":
            "aa2366f49cd95f49900cd42e84144e5f83d346eb712d74507775ee32745a68f9",
        "solve dpar_star oracle":
            "aa2366f49cd95f49900cd42e84144e5f83d346eb712d74507775ee32745a68f9",
        "solve dpar_star wf --three-valued":
            "3e19a5fcdc87509ff04799b7919a0ab950dffc3501451f1583fb289caf406b12",
        "solve dpar_star stratified --three-valued":
            "3e19a5fcdc87509ff04799b7919a0ab950dffc3501451f1583fb289caf406b12",
        "analyze":
            "48b10f8d92f32df90413500e6d2a9c60fcb67dbb503007fd16b8790a059bd38e",
        "check":
            "d0d2e19a96ca4fae878f6a7d2dac14f2306ae3cffb5097507e5a9712381f21f3",
        "compile team":
            "f94574e2a743407b0bde579d18b1faf39113e879bd679eb7534fb5a8f3510f08",
        "compile individual":
            "fe2640a0e98c4b412d2edfaf450b6c13c9649b9f61417272566ea47aaea4b407",
        "eval team wf":
            "a5dfce82f169247c4a31ebdc05c5e5890cb28dc5e4dc4f33fc5e9925e33a7b6b",
        "eval team fitting":
            "a5dfce82f169247c4a31ebdc05c5e5890cb28dc5e4dc4f33fc5e9925e33a7b6b",
        "eval team stratified":
            "a5dfce82f169247c4a31ebdc05c5e5890cb28dc5e4dc4f33fc5e9925e33a7b6b",
        "eval individual wf":
            "4b38edee1a7496ae4c8e17e2672e55b58183dc7bd5b0bda13b2a41e02c9d565a",
        "eval individual fitting":
            "4b38edee1a7496ae4c8e17e2672e55b58183dc7bd5b0bda13b2a41e02c9d565a",
        "eval individual stratified":
            "4b38edee1a7496ae4c8e17e2672e55b58183dc7bd5b0bda13b2a41e02c9d565a",
    },
    "worked_pair": {
        "solve dpar wf":
            "8c4b6fa35c3db5bc89fb8f5e9e2f8cb43e74195124d5bfb41bb1b64aadc49052",
        "solve dpar stratified":
            "8c4b6fa35c3db5bc89fb8f5e9e2f8cb43e74195124d5bfb41bb1b64aadc49052",
        "solve dpar hybrid":
            "8c4b6fa35c3db5bc89fb8f5e9e2f8cb43e74195124d5bfb41bb1b64aadc49052",
        "solve dpar oracle":
            "8c4b6fa35c3db5bc89fb8f5e9e2f8cb43e74195124d5bfb41bb1b64aadc49052",
        "solve dpar wf --three-valued":
            "96b2d6a5fbef5dfbcda7e1544d42b8ed01048af651fe513c4bae0050fe015d33",
        "solve dpar stratified --three-valued":
            "96b2d6a5fbef5dfbcda7e1544d42b8ed01048af651fe513c4bae0050fe015d33",
        "solve dpar_star wf":
            "90c461c84cabd4ac0032f985ee4f2acb9eb94eec154a5fccd215e108d0f64ca9",
        "solve dpar_star stratified":
            "90c461c84cabd4ac0032f985ee4f2acb9eb94eec154a5fccd215e108d0f64ca9",
        "solve dpar_star hybrid":
            "90c461c84cabd4ac0032f985ee4f2acb9eb94eec154a5fccd215e108d0f64ca9",
        "solve dpar_star oracle":
            "90c461c84cabd4ac0032f985ee4f2acb9eb94eec154a5fccd215e108d0f64ca9",
        "solve dpar_star wf --three-valued":
            "dd1dee020b0609a4fa1abd9a2517a45a7d83bd12df646ae41df18700660c90a8",
        "solve dpar_star stratified --three-valued":
            "dd1dee020b0609a4fa1abd9a2517a45a7d83bd12df646ae41df18700660c90a8",
        "analyze":
            "91899c101abdc504a656704a5df41afb7d4431016ddd8ae20dab664820f49ec3",
        "check":
            "d0d2e19a96ca4fae878f6a7d2dac14f2306ae3cffb5097507e5a9712381f21f3",
        "compile team":
            "8dad9525a8eb91538d604e1d108ad4f6f5eb59c03210a424f188f2ff30917500",
        "compile individual":
            "dff25f6f1f5b558d87075d02221deebafd9ca06c4983b539f9bc8019c2168c43",
        "eval team wf":
            "106588968ddab0bb518e0a073c03ef2e2c2a12cd1a009c82b04cad772567b5fa",
        "eval team fitting":
            "106588968ddab0bb518e0a073c03ef2e2c2a12cd1a009c82b04cad772567b5fa",
        "eval team stratified":
            "106588968ddab0bb518e0a073c03ef2e2c2a12cd1a009c82b04cad772567b5fa",
        "eval individual wf":
            "f4c7b5eb40da39223fdd31a62aba032888b45aad7c1a2064f5cd7e27f5c8f9bc",
        "eval individual fitting":
            "f4c7b5eb40da39223fdd31a62aba032888b45aad7c1a2064f5cd7e27f5c8f9bc",
        "eval individual stratified":
            "f4c7b5eb40da39223fdd31a62aba032888b45aad7c1a2064f5cd7e27f5c8f9bc",
    },
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_output_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DEFEASIDL_SEED", raising=False)
    assert digests(tmp_path, INPUTS[name]()) == EXPECTED[name]
