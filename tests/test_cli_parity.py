"""CLI parity: each argv's exit status, stderr and the sha256 of its stdout.

The rows were recorded in-process, as the test runs them, from the tree
before every subcommand wrote its records through `cli._emit`. They cover
every subcommand in every format it accepts, grids with BudgetExceeded
records (status 1), input errors (status 2) and a format argparse rejects
(its usage lines wrapped at 80 columns). The rows of the block statements
(identity, telescoping and the inversions in json) were recorded from the
tree before a block's passing records were written as joined runs.
A new statement or subcommand adds its rows here.
"""

import hashlib

import pytest

from eiscong.cli import main

PARITY = [
    ("bernoulli 0..300 --p 2,5,7", 0, "",
     "7ca501231e398987f2055c93a8eb8cc53f51879fbc94952ea6911b721a12237e"),
    ("bernoulli 0..300 --p 2,5,7 --format json", 0, "",
     "56e7b44776bbc202b08538743d566528458fd57cbb6c393130a49a151bf15c89"),
    ("bernoulli 0..300 --p 2,5,7 --format jsonl", 0, "",
     "a786d75baab5221445d0c8483c026536964f2555213388dc89f683d47a143607"),
    ("bernoulli 5..3", 2, "error: the Bernoulli index range 5..3 is empty\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("series g --k 10 --p 7 --m 2 --prec 12", 0, "",
     "dc0cd03b127eb8f453a7ba56c1fad96e0233cda2b271cf3aa67c97e41435f787"),
    ("series g --k 10 --p 7 --m 2 --prec 12 --format jsonl", 0, "",
     "dc0cd03b127eb8f453a7ba56c1fad96e0233cda2b271cf3aa67c97e41435f787"),
    ("series e --k 10 --p 5 --m 3 --prec 12", 0, "",
     "e80c8e77692937db4c2614966fd8b189153f24060b1328c2510b6b3d6ac9a8ff"),
    ("series e --k 10 --p 5 --m 3 --prec 12 --format jsonl", 0, "",
     "e80c8e77692937db4c2614966fd8b189153f24060b1328c2510b6b3d6ac9a8ff"),
    ("series delta --p 5 --m 2 --prec 12", 0, "",
     "754a095df42b10785e26c3947f8dc6ed25875165955ba951631fc6abb0de1f32"),
    ("series delta --p 5 --m 2 --prec 12 --format jsonl", 0, "",
     "754a095df42b10785e26c3947f8dc6ed25875165955ba951631fc6abb0de1f32"),
    ("series efactor --p 7 --m 3 --prec 12", 0, "",
     "23e0e77bb287d60255ec94dd24633c0477409ca7d2e088b253091b4ca89e209e"),
    ("series efactor --p 7 --m 3 --prec 12 --format jsonl", 0, "",
     "23e0e77bb287d60255ec94dd24633c0477409ca7d2e088b253091b4ca89e209e"),
    ("series monomial --a 1 --b 2 --c 1 --p 5 --m 2 --prec 12", 0, "",
     "5fb2bbb49fb47941b547b88033bf67fd385045212e73451192fb0b05a46ac06f"),
    ("series monomial --a 1 --b 2 --c 1 --p 5 --m 2 --prec 12 --format jsonl", 0, "",
     "5fb2bbb49fb47941b547b88033bf67fd385045212e73451192fb0b05a46ac06f"),
    ("series g --k 3 --p 5", 2, "usage error: weight must be an even integer >= 2, got 3\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify thm1 --p 5,7 --m 1..3 --alpha 0..4 --prec 30", 0, "",
     "08fe4c527a066ddbe851da84e37405271321b58cef5eaad6aec753f88ca73b8f"),
    ("verify thm1 --p 5,7 --m 1..3 --alpha 0..4 --prec 30 --format json", 0, "",
     "61c86c66aa2fa43a48afae63d8ac4181745a17d93fa07a369b3dcbe7e3f18c4a"),
    ("verify thm1 --p 5,7 --m 1..3 --alpha 0..4 --prec 30 --format csv", 0, "",
     "257534b718129b81715a18fe118777947b9efd3da8439b5461665425892188c2"),
    ("verify thm1 --p 5,7 --m 1..3 --alpha 0..4 --prec 30 --format human", 0, "",
     "431e5c91a5975ce10ef959dcba88726e6e9f6e163867af75733812dd5dec55a1"),
    ("verify thm1 --p 5 --m 1..3 --alpha 0..4 --prec 30 --budget-bernoulli 12", 1, "",
     "c5454cf59db4bb767a93e55cf02eae5fc5a1e108abe1103adf40acaa7504f5b2"),
    ("verify thm1 --p 5 --m 1..3 --alpha 0..4 --prec 30 --budget-bernoulli 12 --format json", 1, "",
     "3406536e8e2cd2ea2450f07995d413f454eb83cc500fec1160516f6498d8fcea"),
    ("verify identity --m 1..5 --alpha 0..7", 0, "",
     "335cd9d0a47d8a245430074a0bd2f1c9fac158b8324473e3a36a899db1a278e4"),
    ("verify identity --m 1..5 --alpha 0..7 --format json", 0, "",
     "4fe481e1b886587de72ca84389340c7b81c3e81f7424c34706fb93b28c293e65"),
    ("verify identity --m 1..5 --alpha 0..7 --format csv", 0, "",
     "527d84b421622d70519f32ed63aac35c08eabd9da3638ce9ab78c8bd610ee85d"),
    ("verify identity --m 1..5 --alpha 0..7 --format human", 0, "",
     "dd20b352d412feed715f06e344fe71b80df58d9ecd3bd909ec18e344054edd4f"),
    ("verify telescoping --m 2..4 --alpha 0..6", 0, "",
     "44438c5b7b6cf12a4c83fd276d69d0670dac4ac0c358fa433058ab0e82e04490"),
    ("verify telescoping --m 2..4 --alpha 0..6 --format json", 0, "",
     "3bec0c592b2a7c977af7f538c42ca024bee634be9479201b8e0f72009f705e9b"),
    ("verify telescoping --m 2..4 --alpha 0..6 --format csv", 0, "",
     "0029eb1de3bcb5ae75cdaf46e1f5e9d525c5465a1cc635419209c3d0e45c2adb"),
    ("verify telescoping --m 2..4 --alpha 0..6 --format human", 0, "",
     "cafc9277c2fc104f7c8077a22c2ba9a6901cea460aa09c7270c2df063f8cc52b"),
    ("verify thm2 --p 5,7 --m 1..3 --alpha 1..5 --prec 20 --format json", 0, "",
     "4314ab9860956f36acb0e50bf77599a45580cba914e68cfc85745663f863e2e1"),
    ("verify prop3.1 --p 5,7 --m 1..3 --alpha 0..5 --prec 20 --format json", 0, "",
     "aae2bdfa70659e71d32b5ab4a54e1d5230a5e279260958caac63dad8371a7e3e"),
    ("verify prop4.2 --p 5,7 --m 1..3 --alpha 1..5 --prec 20 --format json", 0, "",
     "e9ef8c0a8956ff427e5843b0f18fcc830ccbafad596141786c289761605b8acf"),
    ("verify eq1.6 --p 7 --m 1..2 --k0 4 --prec 20 --format csv", 0, "",
     "e0c5bd13f0a9c032805f976ad4a52b7c254dfa4d64bc53d62c97291e1b76c443"),
    ("verify eq1.6 --p 5 --m 1 --k0 4", 2, "error: 4 must not divide k0\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("filtration --form G --k 14 --p 5 --m 3 --probe 10", 0, "",
     "843fd1efebe27ef89dc9aa1a2aef9b4728804b4a235e34e8bd51fe649b890ecd"),
    ("filtration --form G --k 14 --p 5 --m 3 --probe 10 --format jsonl", 0, "",
     "843fd1efebe27ef89dc9aa1a2aef9b4728804b4a235e34e8bd51fe649b890ecd"),
    ("filtration --form E --k 24 --p 7 --m 3 --prec 12 --probe 18", 0, "",
     "df92a5cb58754ab1b7088fc3a1613a13e3873b96d0607cead78aec1ebdd151bc"),
    ("filtration --form E --k 24 --p 7 --m 3 --prec 12 --probe 18 --format jsonl", 0, "",
     "df92a5cb58754ab1b7088fc3a1613a13e3873b96d0607cead78aec1ebdd151bc"),
    ("filtration --k 5 --p 5 --m 1", 2, "error: weight must be even, got 5\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("reproduce paper-17-6", 0, "",
     "a48841a553155f1ba76cdbcf12fd0752c01454385080cdd859751e8d65e88af0"),
    ("reproduce paper-17-6 --format jsonl", 0, "",
     "a48841a553155f1ba76cdbcf12fd0752c01454385080cdd859751e8d65e88af0"),
    ("reproduce paper-7-8", 0, "",
     "8bb494a424522c5f641b3f744a01d10af1f22ba84d06cf0ee51180138d6c7d8d"),
    ("scan eq6.4 --p 5,7 --m 1..3", 0, "",
     "0fe5da341e65e2240d4452b82f288dec4c7dcf589e84703beeae0ff87a8dac3b"),
    ("scan eq6.4 --p 5,7 --m 1..3 --format json", 0, "",
     "3d7a20d876be045cf01369edcb4b64e9ebe8e234d863e314d4255634132a9694"),
    ("scan eq6.1 --p 5 --m 1..2 --prec 20", 0, "",
     "4a0e007f38595efd79b40e38ee56a2beb5a69335c8d664599b499c1be5a5d6c0"),
    ("scan eq6.1 --p 5 --m 1..2 --prec 20 --format json", 0, "",
     "cdb750dcaf54af8f068bd8e74de0d23695c145ff027bf6b790d433d4172b5fd2"),
    ("scan eq6.4 --p 5 --m 2 --alpha 0..4 --budget-bernoulli 10", 1, "",
     "eefb5efe98e51e1557e403b7c0ce2c30490baccc31e3af598ee856c13849dd8e"),
    ("series g --k 4 --p 5 --format csv", 2,
     ("usage: eiscong series [-h] [--k K] [--a A] [--b B] [--c C] --p P [--m M]\n"
      "                      [--prec PREC] [--out OUT] [--format {json,jsonl}]\n"
      "                      [--cache CACHE]\n"
      "                      {g,e,delta,efactor,monomial}\n"
      "eiscong series: error: argument --format: invalid choice: 'csv' "
      "(choose from 'json', 'jsonl')\n"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv,status,err,digest", PARITY,
                         ids=[argv.replace(" ", "_") for argv, *_ in PARITY])
def test_status_stderr_and_stdout_match_the_table(capsys, monkeypatch, argv, status, err, digest):
    monkeypatch.delenv("EISCONG_BERNOULLI_CACHE", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
    try:
        got = main(argv.split())
    except SystemExit as exc:  # argparse rejected the argv
        got = exc.code
    out, got_err = capsys.readouterr()
    assert (got, got_err, hashlib.sha256(out.encode()).hexdigest()) == (status, err, digest)
