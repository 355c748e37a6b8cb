(* [Service.dispatch] replies to [Service_script.run] on a fresh in-memory
   instance, recorded before the verb table replaced the hand-written
   dispatcher: the table must reproduce them byte for byte. *)

let expected =
  [
    "\"put\" \"k1\" \"master\" \"line1\\nline2 = \\\"q\\\" \\000\\255 tail\" -> OK \"N4CC4NUKJ4AR76DXRQHSYWE3KTM5FK5FC2J6NRJZOC4SEKELIHTQ====\"";
    "\"put\" \"k1\" \"master\" \"second\" -> OK \"6JLQRUDV23GZDTCSFJOYHW5KFCPMWLFSHZI7355WPWJVKD4RHDQA====\"";
    "\"put-csv\" \"t1\" \"master\" \"id,v\\n1,x\\n2,y\\n\" -> OK \"TKBCL56M2WXNRNIJDWRXXJJ6LEDZU2SIQGBMTDOPUBKMLLLFYWCQ====\"";
    "\"PUT\" \"K2\" \"master\" \"\" -> OK \"I3ASVENBRGFSB7HY4DK4DESHLN32I4DRDKGV4MKL6H4MWMPSNU2A====\"";
    "\"put\" \"k=1\" \"b\\\"r\" \"v\\nw\" -> OK \"BEYGKOMWLC5MQKJOILQXYNNPIQKYGUITADGZE26SDUICUKKKCYBA====\"";
    "\"get\" \"k1\" \"master\" -> OK \"second\"";
    "\"GET\" \"K2\" \"master\" -> OK \"\"";
    "\"get\" \"nokey\" \"master\" -> ERR key_not_found \"key not found: \\\"nokey\\\"\"";
    "\"get\" \"k1\" \"nobranch\" -> ERR branch_not_found \"branch \\\"nobranch\\\" not found for key \\\"k1\\\"\"";
    "\"head\" \"k1\" \"master\" -> OK \"6JLQRUDV23GZDTCSFJOYHW5KFCPMWLFSHZI7355WPWJVKD4RHDQA====\"";
    "\"head\" \"k=1\" \"b\\\"r\" -> OK \"BEYGKOMWLC5MQKJOILQXYNNPIQKYGUITADGZE26SDUICUKKKCYBA====\"";
    "\"get-at\" \"N4CC4NUKJ4AR76DXRQHSYWE3KTM5FK5FC2J6NRJZOC4SEKELIHTQ====\" -> OK \"line1\\nline2 = \\\"q\\\" \\000\\255 tail\"";
    "\"get-at\" \"f25708d075d6cd91cc522a5d83dbaa289ecb2cb23e51fdf7b67d93550f9138e0\" -> OK \"second\"";
    "\"get-at\" \"notauid\" -> ERR invalid \"invalid request: cannot parse version \\\"notauid\\\" (expected Base32 or hex)\"";
    "\"get-at\" \"0000000000000000000000000000000000000000000000000000000000000000\" -> ERR corrupt \"integrity violation: no such version 0000000000000000000000000000000000000000000000000000000000000000\"";
    "\"latest\" \"k1\" -> OK \"master 6JLQRUDV23GZDTCSFJOYHW5KFCPMWLFSHZI7355WPWJVKD4RHDQA====\"";
    "\"list\" -> OK \"K2\\nk1\\nk=1\\nt1\"";
    "\"log\" \"k1\" \"master\" -> OK \"6JLQRUDV23GZDTCSFJOYHW5KFCPMWLFSHZI7355WPWJVKD4RHDQA==== 2 anonymous put\\nN4CC4NUKJ4AR76DXRQHSYWE3KTM5FK5FC2J6NRJZOC4SEKELIHTQ==== 1 anonymous put\"";
    "\"branch\" \"k1\" \"master\" \"dev\" -> OK \"6JLQRUDV23GZDTCSFJOYHW5KFCPMWLFSHZI7355WPWJVKD4RHDQA====\"";
    "\"branch\" \"k1\" \"nobranch\" \"dev3\" -> ERR branch_not_found \"branch \\\"nobranch\\\" not found for key \\\"k1\\\"\"";
    "\"put\" \"k1\" \"dev\" \"dev-side\" -> OK \"B44U4VY45PFQ7IVB5XU3OD5RAGECLJ2XXSQG3CYYSFTT66WO7DIQ====\"";
    "\"rename\" \"k1\" \"dev\" \"dev2\" -> OK \"\"";
    "\"rename\" \"k1\" \"dev\" \"dev4\" -> ERR invalid \"invalid request: no branch \\\"dev\\\" for key \\\"k1\\\"\"";
    "\"tag\" \"k1\" \"v1\" \"N4CC4NUKJ4AR76DXRQHSYWE3KTM5FK5FC2J6NRJZOC4SEKELIHTQ====\" -> OK \"\"";
    "\"tag\" \"k1\" \"v1\" \"6JLQRUDV23GZDTCSFJOYHW5KFCPMWLFSHZI7355WPWJVKD4RHDQA====\" -> ERR invalid \"invalid request: tag \\\"v1\\\" already exists for key \\\"k1\\\" (tags are immutable)\"";
    "\"tag\" \"k1\" \"v2\" \"zzz\" -> ERR invalid \"invalid request: cannot parse version \\\"zzz\\\" (expected Base32 or hex)\"";
    "\"latest\" \"k1\" -> OK \"dev2 B44U4VY45PFQ7IVB5XU3OD5RAGECLJ2XXSQG3CYYSFTT66WO7DIQ====\\nmaster 6JLQRUDV23GZDTCSFJOYHW5KFCPMWLFSHZI7355WPWJVKD4RHDQA====\"";
    "\"meta\" \"6JLQRUDV23GZDTCSFJOYHW5KFCPMWLFSHZI7355WPWJVKD4RHDQA====\" -> OK \"key: k1\\nseq: 2\\nauthor: anonymous\\nmessage: put\\nbases:\\n  N4CC4NUKJ4AR76DXRQHSYWE3KTM5FK5FC2J6NRJZOC4SEKELIHTQ====\"";
    "\"meta\" \"zzz\" -> ERR invalid \"invalid request: cannot parse version \\\"zzz\\\" (expected Base32 or hex)\"";
    "\"diff\" \"k1\" \"master\" \"dev2\" -> OK \"value changed: second -> dev-side\\n- second\\n+ dev-side\\n\"";
    "\"branch\" \"t1\" \"master\" \"side\" -> OK \"TKBCL56M2WXNRNIJDWRXXJJ6LEDZU2SIQGBMTDOPUBKMLLLFYWCQ====\"";
    "\"put-csv\" \"t1\" \"side\" \"id,v\\n1,x\\n2,z\\n3,w\\n\" -> OK \"PPVXFYDPE7MIBWKXVHOJRYKZPLZQZ5WMJPFBJBXFH3WLWZQ26W7Q====\"";
    "\"diff\" \"t1\" \"master\" \"side\" -> OK \"1 rows added, 0 removed, 1 modified (1 cells)\\n~ row \\\"2\\\":\\n    v: y -> z\\n+ row (3, w)\\n\"";
    "\"diff-json\" \"t1\" \"master\" \"side\" -> OK \"{\\\"kind\\\":\\\"table\\\",\\\"summary\\\":\\\"1 rows added, 0 removed, 1 modified (1 cells)\\\",\\\"changes\\\":[{\\\"op\\\":\\\"modify\\\",\\\"key\\\":\\\"2\\\",\\\"cells\\\":[{\\\"column\\\":\\\"v\\\",\\\"before\\\":\\\"y\\\",\\\"after\\\":\\\"z\\\"}]},{\\\"op\\\":\\\"add\\\",\\\"row\\\":[3,\\\"w\\\"]}]}\"";
    "\"merge\" \"t1\" \"master\" \"side\" -> OK \"PPVXFYDPE7MIBWKXVHOJRYKZPLZQZ5WMJPFBJBXFH3WLWZQ26W7Q====\"";
    "\"merge\" \"k1\" \"master\" \"dev2\" -> OK \"B44U4VY45PFQ7IVB5XU3OD5RAGECLJ2XXSQG3CYYSFTT66WO7DIQ====\"";
    "\"verify\" \"k1\" \"master\" -> OK \"3 versions 0 chunks\"";
    "\"verify\" \"t1\" \"master\" -> OK \"2 versions 1 chunks\"";
    "\"prove\" \"t1\" \"master\" \"1\" -> OK \"63464201060274312b05000202696401017600013b942daa874165ecb47f6988310ce9377aefa42a9ed453fe7620b799437440ea019a8225f7ccd5aed8b5091da37ba53e59079a6a488182c98dcfa054c5ad65c58509616e6f6e796d6f757303707574020135464201010301310d0202000000000000000104017801320d0202000000000000000204017a01330d02020000000000000003040177\"";
    "\"prove\" \"t1\" \"master\" \"nope\" -> OK \"63464201060274312b05000202696401017600013b942daa874165ecb47f6988310ce9377aefa42a9ed453fe7620b799437440ea019a8225f7ccd5aed8b5091da37ba53e59079a6a488182c98dcfa054c5ad65c58509616e6f6e796d6f757303707574020135464201010301310d0202000000000000000104017801320d0202000000000000000204017a01330d02020000000000000003040177\"";
    "\"prove\" \"k1\" \"master\" \"1\" -> ERR type_mismatch \"type mismatch: expected map or table, got primitive\"";
    "\"stat\" -> OK \"keys=4 branches=6 versions=7 physical=498\"";
    "\"fsck\" -> OK \"scanned 9 chunks (498 bytes): 0 corrupt, 0 quarantined, 0 repaired, 0 unrepaired, 0 orphans, 0 missing\"";
    "\"scrub\" -> OK \"scanned 9 chunks (498 bytes): 0 corrupt, 0 quarantined, 0 repaired, 0 unrepaired, 0 orphans, 0 missing\"";
    "\"get-json\" \"t1\" \"master\" -> OK \"{\\\"type\\\":\\\"table\\\",\\\"rows\\\":3,\\\"columns\\\":[\\\"id\\\",\\\"v\\\"],\\\"key\\\":\\\"id\\\",\\\"preview\\\":[[1,\\\"x\\\"],[2,\\\"z\\\"],[3,\\\"w\\\"]]}\"";
    "\"get-json\" \"k1\" \"master\" -> OK \"{\\\"type\\\":\\\"primitive\\\",\\\"value\\\":\\\"dev-side\\\"}\"";
    "\"log-json\" \"k1\" \"master\" -> OK \"[{\\\"uid\\\":\\\"B44U4VY45PFQ7IVB5XU3OD5RAGECLJ2XXSQG3CYYSFTT66WO7DIQ====\\\",\\\"seq\\\":3,\\\"author\\\":\\\"anonymous\\\",\\\"message\\\":\\\"put\\\",\\\"bases\\\":[\\\"6JLQRUDV23GZDTCSFJOYHW5KFCPMWLFSHZI7355WPWJVKD4RHDQA====\\\"]},{\\\"uid\\\":\\\"6JLQRUDV23GZDTCSFJOYHW5KFCPMWLFSHZI7355WPWJVKD4RHDQA====\\\",\\\"seq\\\":2,\\\"author\\\":\\\"anonymous\\\",\\\"message\\\":\\\"put\\\",\\\"bases\\\":[\\\"N4CC4NUKJ4AR76DXRQHSYWE3KTM5FK5FC2J6NRJZOC4SEKELIHTQ====\\\"]},{\\\"uid\\\":\\\"N4CC4NUKJ4AR76DXRQHSYWE3KTM5FK5FC2J6NRJZOC4SEKELIHTQ====\\\",\\\"seq\\\":1,\\\"author\\\":\\\"anonymous\\\",\\\"message\\\":\\\"put\\\",\\\"bases\\\":[]}]\"";
    "\"stat-json\" -> OK \"{\\\"keys\\\":4,\\\"branches\\\":6,\\\"versions\\\":7,\\\"store\\\":{\\\"chunks\\\":9,\\\"physical_bytes\\\":498,\\\"logical_bytes\\\":498,\\\"dedup_hits\\\":0}}\"";
    "\"latest-json\" \"k1\" -> OK \"{\\\"dev2\\\":\\\"B44U4VY45PFQ7IVB5XU3OD5RAGECLJ2XXSQG3CYYSFTT66WO7DIQ====\\\",\\\"master\\\":\\\"B44U4VY45PFQ7IVB5XU3OD5RAGECLJ2XXSQG3CYYSFTT66WO7DIQ====\\\"}\"";
    "\"metrics\" -> OK <volatile>";
    "\"metrics-json\" -> OK <volatile>";
    "\"sync-have\" \"f25708d075d6cd91cc522a5d83dbaa289ecb2cb23e51fdf7b67d93550f9138e0\" \"0000000000000000000000000000000000000000000000000000000000000000\" \"6f042e368a4f011ff8778c0f2c589b54d9d2aba51693e6c53970b922288b41e7\" -> OK \"101\"";
    "\"sync-have\" \"f25708d075d6cd91cc522a5d83dbaa289ecb2cb23e51fdf7b67d93550f9138e0\" \"nothex\" -> ERR invalid \"invalid request: sync-have: bad chunk id \\\"nothex\\\"\"";
    "\"sync-get\" \"f25708d075d6cd91cc522a5d83dbaa289ecb2cb23e51fdf7b67d93550f9138e0\" -> OK \"FB\\001\\006\\002k1\\t\\000\\004\\006second\\001o\\004.6\\138O\\001\\031\\248w\\140\\015,X\\155T\\217\\210\\171\\165\\022\\147\\230\\1979p\\185\\\"(\\139A\\231\\tanonymous\\003put\\002\"";
    "\"sync-get\" \"0000000000000000000000000000000000000000000000000000000000000000\" -> ERR version_not_found \"version not found: 0000000000000000000000000000000000000000000000000000000000000000\"";
    "\"sync-get\" \"nothex\" -> ERR invalid \"invalid request: sync-get: bad chunk id \\\"nothex\\\"\"";
    "\"sync-bloom\" -> OK \"90:7:\\015|\\186\\210M\\016\\183\\134\\016\\183\\226\\002\"";
    "\"sync-put\" \"k3\" \"master\" \"f25708d075d6cd91cc522a5d83dbaa289ecb2cb23e51fdf7b67d93550f9138e0\" \"FB\\001\\006\\002k1\\t\\000\\004\\006second\\001o\\004.6\\138O\\001\\031\\248w\\140\\015,X\\155T\\217\\210\\171\\165\\022\\147\\230\\1979p\\185\\\"(\\139A\\231\\tanonymous\\003put\\002\" -> OK \"\"";
    "\"sync-put\" \"k3\" \"master\" \"f25708d075d6cd91cc522a5d83dbaa289ecb2cb23e51fdf7b67d93550f9138e0\" \"garbage\" -> ERR corrupt \"integrity violation: sync: chunk f25708d075d6 does not decode: chunk: bad magic\"";
    "\"sync-put\" \"k3\" \"master\" \"nothex\" \"FB\\001\\006\\002k1\\t\\000\\004\\006second\\001o\\004.6\\138O\\001\\031\\248w\\140\\015,X\\155T\\217\\210\\171\\165\\022\\147\\230\\1979p\\185\\\"(\\139A\\231\\tanonymous\\003put\\002\" -> ERR invalid \"invalid request: sync-put: bad chunk id \\\"nothex\\\"\"";
    "\"sync-advance\" \"k3\" \"master\" \"f25708d075d6cd91cc522a5d83dbaa289ecb2cb23e51fdf7b67d93550f9138e0\" -> ERR invalid \"invalid request: version belongs to key \\\"k1\\\", not \\\"k3\\\"\"";
    "\"sync-advance\" \"k1\" \"master\" \"f25708d075d6cd91cc522a5d83dbaa289ecb2cb23e51fdf7b67d93550f9138e0\" -> ERR invalid \"invalid request: version is not a fast-forward of k1/master; sync to a side branch and merge\"";
    "\"sync-advance\" \"k1\" \"master\" \"zzz\" -> ERR invalid \"invalid request: cannot parse version \\\"zzz\\\" (expected Base32 or hex)\"";
    "\"chunk-put\" \"f25708d075d6cd91cc522a5d83dbaa289ecb2cb23e51fdf7b67d93550f9138e0\" \"FB\\001\\006\\002k1\\t\\000\\004\\006second\\001o\\004.6\\138O\\001\\031\\248w\\140\\015,X\\155T\\217\\210\\171\\165\\022\\147\\230\\1979p\\185\\\"(\\139A\\231\\tanonymous\\003put\\002\" -> OK \"\"";
    "\"chunk-put\" \"f25708d075d6cd91cc522a5d83dbaa289ecb2cb23e51fdf7b67d93550f9138e0\" \"garbage\" -> ERR corrupt \"integrity violation: sync: chunk f25708d075d6 does not decode: chunk: bad magic\"";
    "\"chunk-put\" \"nothex\" \"FB\\001\\006\\002k1\\t\\000\\004\\006second\\001o\\004.6\\138O\\001\\031\\248w\\140\\015,X\\155T\\217\\210\\171\\165\\022\\147\\230\\1979p\\185\\\"(\\139A\\231\\tanonymous\\003put\\002\" -> ERR invalid \"invalid request: chunk-put: bad chunk id \\\"nothex\\\"\"";
    "\"chunk-stat\" -> OK \"chunks=9 bytes=498\"";
    "\"Chunk-Stat\" -> OK \"chunks=9 bytes=498\"";
    "\"frobnicate\" \"a\" \"b\" -> ERR invalid \"invalid request: bad request: frobnicate/2 arguments\"";
    " -> ERR invalid \"invalid request: empty request\"";
    "\"stat\" -> OK \"keys=4 branches=6 versions=7 physical=498\"";
  ]
